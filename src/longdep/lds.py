"""Long-dependency scoring.

A document is split into N fixed-length segments. For an ordered pair of
segments (target i, source j) with j < i, three quantities combine into a
pairwise score:

  dst  relative drop in target perplexity when the source is prepended:
         (ppl(i) - ppl(i | j)) / ppl(i)
  ddi  normalized segment distance: (i - j) / (N - 1)
  dsp  sharpness of the target's dependency profile: one minus the
         normalized entropy of a softmax over the target's dst row

Pairwise scores pass through an indicator gate (dst > tau) and sum into
the document score. ``exact`` mode evaluates every pair; ``sampled`` mode
evaluates a uniform without-replacement subset and is bit-identical to
exact whenever the requested sample covers all pairs.

Segment indices are 0-based everywhere, in code and in artifacts. Both
index conventions give the same arithmetic: distances and row sizes are
shift-invariant.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from itertools import islice, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence, get_type_hints

import numpy as np

from .backends import PerplexityBackend, cached_unconditional, ppl_from_sum, ppl_given
from .corpus import SegmentGrid
from .errors import BackendError, BackendUnreachable, ConfigError
from .jsonio import fingerprint

DSP_VARIANTS = ("multiplicative", "additive", "none")
MODES = ("exact", "sampled")


@dataclass(frozen=True)
class LdsConfig:
    """Scoring parameters. Defaults are the reference profile."""

    segment_len: int = 128
    truncate_len: int = 32768
    tau: float = 0.05
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    mode: str = "sampled"
    sample_size: int = 5000
    dsp_variant: str = "multiplicative"
    seed: int = 0

    def __post_init__(self):
        if self.segment_len < 1:
            raise ConfigError(f"segment_len must be >= 1, got {self.segment_len}")
        if self.truncate_len < 2 * self.segment_len:
            raise ConfigError(
                f"truncate_len must be >= 2 * segment_len, got {self.truncate_len}"
            )
        if not (math.isfinite(self.tau) and self.tau >= 0.0):
            raise ConfigError(f"tau must be finite and >= 0, got {self.tau}")
        for name in ("alpha", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.sample_size < 1:
            raise ConfigError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.dsp_variant not in DSP_VARIANTS:
            raise ConfigError(
                f"dsp_variant must be one of {DSP_VARIANTS}, got {self.dsp_variant!r}"
            )

    def replace(self, **changes) -> "LdsConfig":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "LdsConfig":
        """Inverse of ``to_dict``. Every field must be present, with its
        declared type (see ``typed_fields``); anything else raises
        ValueError or ConfigError."""
        names = {f.name for f in fields(cls)}
        if not isinstance(data, dict) or set(data) != names:
            raise ValueError(f"an LdsConfig holds exactly the keys {sorted(names)}")
        return cls(**typed_fields(cls, data))

    def fingerprint(self) -> str:
        return fingerprint(self.to_dict())


@functools.cache
def _field_types(cls) -> dict:
    return get_type_hints(cls)


def typed_fields(cls, values: dict) -> dict:
    """``values``, each checked against the declared type of its field of
    dataclass ``cls``; a mistyped one raises ConfigError. A float field
    takes a finite int or float and stores it as a float, so ``0`` and
    ``0.0`` hash alike; a bool passes for neither."""
    types = _field_types(cls)
    out = {}
    for name, value in values.items():
        kind = types[name]
        if kind is float:
            if not (type(value) in (int, float) and math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
            value = float(value)
        elif type(value) is not kind:
            raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
        out[name] = value
    return out


def dst(unconditional: float, conditional: float) -> float:
    """Relative perplexity drop. Positive when context helps; can be
    negative when context hurts. Bounded above by 1."""
    if not (unconditional > 0.0 and math.isfinite(unconditional)):
        raise ValueError(f"unconditional perplexity must be positive, got {unconditional}")
    if not (conditional > 0.0 and math.isfinite(conditional)):
        raise ValueError(f"conditional perplexity must be positive, got {conditional}")
    return (unconditional - conditional) / unconditional


def ddi(target: int, source: int, n_segments: int) -> float:
    """Normalized distance between segment positions, in (0, 1]."""
    if n_segments < 2:
        raise ValueError("a document has at least two segments")
    if not 0 <= source < target < n_segments:
        raise ValueError(f"need 0 <= source < target < {n_segments}, got ({target}, {source})")
    return (target - source) / (n_segments - 1)


def dsp(row: Sequence[float]) -> float:
    """Dependency sharpness of a target's dst row, in [0, 1].

    Softmax the row, take entropy in nats, normalize by log(m), subtract
    from 1. A uniform row gives 0; mass concentrated on one source gives
    values near 1. A single-element row carries no contrast to sharpen,
    so it scores 0.
    """
    m = len(row)
    if m == 0:
        raise ValueError("dst row must be non-empty")
    if m == 1:
        return 0.0
    peak = max(row)
    exps = [math.exp(v - peak) for v in row]
    z = sum(exps)
    entropy = 0.0
    for e in exps:
        p = e / z
        if p > 0.0:
            entropy -= p * math.log(p)
    value = (math.log(m) - entropy) / math.log(m)
    return min(1.0, max(0.0, value))


def lds_pair(dst_value: float, ddi_value: float, dsp_value: float, cfg: LdsConfig) -> float:
    """Combine the three per-pair quantities under the configured variant."""
    base = cfg.alpha * dst_value + cfg.beta * ddi_value
    if cfg.dsp_variant == "multiplicative":
        return base * dsp_value
    if cfg.dsp_variant == "additive":
        return base + cfg.gamma * dsp_value
    return base


def pair_count(n_segments: int) -> int:
    """Number of ordered (target, source) pairs with source < target."""
    return n_segments * (n_segments - 1) // 2


def _pair_from_linear(linear: int) -> tuple[int, int]:
    # Pairs enumerate target-major: linear = t*(t-1)/2 + s with s < t.
    t = (1 + math.isqrt(1 + 8 * linear)) // 2
    while t * (t - 1) // 2 > linear:
        t -= 1
    while (t + 1) * t // 2 <= linear:
        t += 1
    return t, linear - t * (t - 1) // 2


def derive_seed(base_seed: int, doc_id: str) -> int:
    """Per-document seed, stable across processes and worker counts."""
    digest = hashlib.sha256(f"{base_seed}\x1f{doc_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


def sample_pairs(n_segments: int, sample_size: int, seed: int) -> tuple[tuple[int, int], ...]:
    """Uniform without-replacement sample of (target, source) pairs,
    returned in canonical order: target ascending, source ascending.

    A sample_size covering every pair returns exactly the full pair set.
    """
    if n_segments < 2:
        raise ValueError("a document has at least two segments")
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    total = pair_count(n_segments)
    if sample_size >= total:
        return tuple((t, s) for t in range(1, n_segments) for s in range(t))
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = rng.choice(total, size=sample_size, replace=False)
    chosen.sort()
    return tuple(_pair_from_linear(int(ix)) for ix in chosen)


class PairScore(NamedTuple):
    target: int
    source: int
    dst: float
    ddi: float
    dsp: float
    pairwise: float
    gated: bool


@dataclass(frozen=True)
class ScoreReport:
    doc_id: str
    n_segments: int
    mode: str
    lds: float
    pair_count: int
    gated_count: int
    config_hash: str
    source: str = ""
    pairs: tuple[PairScore, ...] = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "source": self.source,
            "n_segments": self.n_segments,
            "mode": self.mode,
            "lds": self.lds,
            "pair_count": self.pair_count,
            "gated_count": self.gated_count,
            "config_hash": self.config_hash,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "ScoreReport":
        """Rebuild a report from a ``to_dict()`` row; pairs are not read.
        A missing field raises KeyError, and a field of the wrong type
        ConfigError."""
        values = {f.name: row[f.name] for f in fields(cls) if f.name not in ("source", "pairs")}
        values["source"] = row.get("source", "")
        return cls(**typed_fields(cls, values))


def pair_sidecar(report: ScoreReport, cfg: LdsConfig) -> dict:
    """The pair sidecar of ``report``, scored under ``cfg``: the report's
    fields, plus ``lds_config`` (``cfg.to_dict()``), ``pairs`` (one
    ``[target, source, dst]`` per pair, in scoring order) and ``dsp``
    (one ``[target, dsp]`` per target row). ``report_from_sidecar``
    rebuilds every other pair value from these."""
    dsp_rows: list[list] = []
    for pair in report.pairs:
        if not dsp_rows or dsp_rows[-1][0] != pair.target:
            dsp_rows.append([pair.target, pair.dsp])
    return {
        **report.to_dict(),
        "lds_config": cfg.to_dict(),
        "pairs": [[pair.target, pair.source, pair.dst] for pair in report.pairs],
        "dsp": dsp_rows,
    }


def _is_finite_float(value) -> bool:
    return type(value) is float and math.isfinite(value)


def report_from_sidecar(data: dict) -> ScoreReport:
    """Rebuild a report and its ``PairScore``s from a ``pair_sidecar``
    dict. ddi, pairwise and the gate are computed as in ``score_document``,
    so every value equals the scored one.

    A malformed sidecar, and one in the old format with an object per
    pair, raises KeyError, ValueError or ConfigError.
    """
    if not isinstance(data, dict):
        raise ValueError("a pair sidecar is a JSON object")
    triples, dsp_rows = data.get("pairs"), data.get("dsp")
    if isinstance(triples, list) and triples and isinstance(triples[0], dict):
        raise ValueError(
            "it holds one object per pair, a format no longer read; "
            "re-run `longdep score --emit-pairs` to rewrite it"
        )
    report = ScoreReport.from_dict(data)
    n = report.n_segments
    if n < 2:
        raise ValueError(f"n_segments must be >= 2, got {n}")
    cfg = LdsConfig.from_dict(data["lds_config"])
    if cfg.fingerprint() != report.config_hash:
        raise ValueError("the fingerprint of lds_config differs from config_hash")
    if not (isinstance(triples, list) and isinstance(dsp_rows, list)):
        raise ValueError("pairs and dsp must be lists")
    dsp_of: dict[int, float] = {}
    for row in dsp_rows:
        if not (isinstance(row, list) and len(row) == 2 and type(row[0]) is int
                and _is_finite_float(row[1])):
            raise ValueError(f"dsp row {row!r} is not [target, dsp]")
        dsp_of[row[0]] = row[1]
    pairs = []
    for triple in triples:
        if not (isinstance(triple, list) and len(triple) == 3 and type(triple[0]) is int
                and type(triple[1]) is int and _is_finite_float(triple[2])):
            raise ValueError(f"pair {triple!r} is not [target, source, dst]")
        target, source, dst_value = triple
        if target not in dsp_of:
            raise ValueError(f"target {target} has no dsp row")
        dsp_value = dsp_of[target]
        ddi_value = ddi(target, source, n)
        pairwise = lds_pair(dst_value, ddi_value, dsp_value, cfg)
        gated = dst_value > cfg.tau
        pairs.append(PairScore(target, source, dst_value, ddi_value, dsp_value, pairwise, gated))
    return replace(report, pairs=tuple(pairs))


def _group_rows(pairs: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    rows: dict[int, list[int]] = {}
    for target, source in pairs:
        rows.setdefault(target, []).append(source)
    for sources in rows.values():
        sources.sort()
    return rows


def _at_pair(exc: BackendError, target: int, source: int) -> BackendError:
    return BackendError(
        f"conditional scoring failed at pair ({target}, {source}): {exc}",
        retriable=exc.retriable,
        segment_index=target,
    )


def _ppl_given_at(
    backend: PerplexityBackend, grid: SegmentGrid, target: int, source: int
) -> float:
    try:
        return ppl_given(backend, grid.segments[target], grid.segments[source])
    except BackendUnreachable:
        raise
    except BackendError as exc:
        raise _at_pair(exc, target, source) from exc


def _streamed(stream, grid: SegmentGrid, pairs: list[tuple[int, int]]) -> Iterator[float]:
    segments = grid.segments
    results = stream((segments[t], segments[s]) for t, s in pairs)
    for (target, source), result in zip(pairs, results):
        if isinstance(result, BackendError):
            raise _at_pair(result, target, source) from result
        yield ppl_from_sum(*result)


def _conditional(
    backend: PerplexityBackend, grid: SegmentGrid, rows: dict[int, list[int]]
) -> Iterator[float]:
    """Conditional perplexity of each pair of ``rows``, target-ascending.

    A backend with ``score_pairs`` scores the whole set in one call, made
    here, before any unconditional value is read; its sums become
    perplexities pair by pair as they are taken, so a failure surfaces at
    the same pair as on the per-pair path. A backend with
    ``score_stream`` (an external scorer) is sent the pairs in windows,
    each when the first of its values is taken, and each answer brings
    its own token count. Every other backend, and a grid neither call
    can take (segments of several lengths, or a pair beyond the
    backend's context), goes pair by pair through ``ppl_given``.
    """
    order = sorted(rows)
    lengths = {len(seg) for seg in grid.segments}
    if len(lengths) == 1 and 2 * max(lengths) <= backend.capabilities.max_context_tokens:
        batch = getattr(backend, "score_pairs", None)
        if batch is not None:
            sums = batch(
                grid.segments,
                [t for t in order for _ in rows[t]],
                [s for t in order for s in rows[t]],
            )
            return map(ppl_from_sum, sums, repeat(lengths.pop()))
        stream = getattr(backend, "score_stream", None)
        if stream is not None:
            return _streamed(stream, grid, [(t, s) for t in order for s in rows[t]])
    return (_ppl_given_at(backend, grid, t, s) for t in order for s in rows[t])


def score_document(
    backend: PerplexityBackend, grid: SegmentGrid, cfg: LdsConfig, keep_pairs: bool = True
) -> ScoreReport:
    """The one scoring path: ``grid``'s score under ``cfg``. ``exact``
    rows hold every source below each target; ``sampled`` rows hold the
    pairs drawn from the document's own seed, ``derive_seed(cfg.seed,
    grid.doc_id)``, so a document scores the same alone as in a corpus.

    Rows are walked target-ascending and sources source-ascending, so a
    sample that happens to cover all pairs performs the identical float
    operations, in the identical order, as an exact run. With
    keep_pairs=False the per-pair records are not materialized; the
    accumulated score is unaffected.
    """
    n = grid.n_segments
    if cfg.mode == "exact":
        rows = {t: list(range(t)) for t in range(1, n)}
    else:
        rows = _group_rows(sample_pairs(n, cfg.sample_size, derive_seed(cfg.seed, grid.doc_id)))
    conditional = _conditional(backend, grid, rows)
    unconditional = cached_unconditional(backend, grid)
    total = 0.0
    gated_count = 0
    n_pairs = 0
    pair_scores: list[PairScore] = []
    for target in sorted(rows):
        sources = rows[target]
        u = unconditional[target]
        dst_row = [dst(u, value) for value in islice(conditional, len(sources))]
        dsp_value = dsp(dst_row)
        for source, dst_value in zip(sources, dst_row):
            ddi_value = ddi(target, source, n)
            pairwise = lds_pair(dst_value, ddi_value, dsp_value, cfg)
            gated = dst_value > cfg.tau
            if gated:
                total += pairwise
                gated_count += 1
            n_pairs += 1
            if keep_pairs:
                pair_scores.append(
                    PairScore(target, source, dst_value, ddi_value, dsp_value, pairwise, gated)
                )
    return ScoreReport(
        doc_id=grid.doc_id,
        n_segments=n,
        mode=cfg.mode,
        lds=total,
        pair_count=n_pairs,
        gated_count=gated_count,
        config_hash=cfg.fingerprint(),
        source=grid.source,
        pairs=tuple(pair_scores),
    )


# Old names, outside ``__all__``, kept only because perfbench's own tests
# import them; each is ``score_document`` under the mode it names.
def lds_exact(backend, grid, cfg, keep_pairs=True) -> ScoreReport:
    return score_document(backend, grid, cfg.replace(mode="exact"), keep_pairs)


def lds_sampled(backend, grid, cfg, seed=None, keep_pairs=True) -> ScoreReport:
    if seed not in (None, derive_seed(cfg.seed, grid.doc_id)):
        raise ValueError("a document's sample seed is derive_seed(cfg.seed, grid.doc_id)")
    return score_document(backend, grid, cfg.replace(mode="sampled"), keep_pairs)

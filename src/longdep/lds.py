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

Kept pair records are columns, (target, source, dst) per pair and
(target, dsp) per row; only ``ScoreReport.pairs`` builds ``PairScore``s.

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
from typing import Iterator, NamedTuple, Sequence, get_type_hints

import numpy as np

# ppl_given is not called here; perfbench's tracer times longdep.lds.ppl_given.
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
    mode: str = field(default="sampled", metadata={"choices": MODES})
    sample_size: int = 5000
    dsp_variant: str = field(default="multiplicative", metadata={"choices": DSP_VARIANTS})
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
        check_choices(self)
        if self.sample_size < 1:
            raise ConfigError(f"sample_size must be >= 1, got {self.sample_size}")

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
def field_types(cls) -> dict:
    return get_type_hints(cls)


def typed_fields(cls, values: dict) -> dict:
    """``values``, each checked against the declared type of its field of
    dataclass ``cls``; a mistyped one raises ConfigError. A float field
    takes a finite int or float and stores it as a float, so ``0`` and
    ``0.0`` hash alike; a bool passes for neither."""
    types = field_types(cls)
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


def check_choices(obj) -> None:
    """ConfigError unless every field of dataclass ``obj`` that declares
    ``choices`` in its metadata holds one of them."""
    for f in fields(obj):
        choices = f.metadata.get("choices")
        if choices is not None and getattr(obj, f.name) not in choices:
            raise ConfigError(f"{f.name} must be one of {choices}, got {getattr(obj, f.name)!r}")


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
    """One document's score; the repr=True fields are its reports.jsonl
    row. With pairs kept, it also holds the pair columns its sidecar
    stores, and ``lds_config``, the config they were scored under."""

    doc_id: str
    n_segments: int
    mode: str
    lds: float
    pair_count: int
    gated_count: int
    config_hash: str
    source: str = ""
    pair_triples: tuple[tuple[int, int, float], ...] = field(default=(), repr=False)
    dsp_rows: tuple[tuple[int, float], ...] = field(default=(), repr=False)
    lds_config: LdsConfig | None = field(default=None, repr=False)

    @functools.cached_property
    def pairs(self) -> tuple[PairScore, ...]:
        """The pair columns as ``PairScore``s, with ddi, pairwise and the
        gate computed as in ``score_document``, so every value equals the
        scored one. A target without a dsp row, or a pair outside the
        grid, raises ValueError."""
        cfg, dsp_of, out = self.lds_config, dict(self.dsp_rows), []
        for target, source, dst_value in self.pair_triples:
            if target not in dsp_of:
                raise ValueError(f"target {target} has no dsp row")
            ddi_value, dsp_value = ddi(target, source, self.n_segments), dsp_of[target]
            pairwise = lds_pair(dst_value, ddi_value, dsp_value, cfg)
            out.append(PairScore(target, source, dst_value, ddi_value, dsp_value, pairwise,
                                 dst_value > cfg.tau))
        return tuple(out)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.repr}

    @classmethod
    def from_dict(cls, row: dict) -> "ScoreReport":
        """Rebuild a report from a ``to_dict()`` row. A missing field
        raises KeyError, and a field of the wrong type ConfigError."""
        values = {f.name: row[f.name] for f in fields(cls) if f.repr and f.name != "source"}
        values["source"] = row.get("source", "")
        return cls(**typed_fields(cls, values))


def pair_sidecar(report: ScoreReport) -> dict:
    """The pair sidecar of a report scored with ``keep_pairs=True``: its
    row, plus its pair columns as ``lds_config`` (``to_dict()``),
    ``pairs`` and ``dsp``, written as they are."""
    return {
        **report.to_dict(),
        "lds_config": report.lds_config.to_dict(),
        "pairs": report.pair_triples,
        "dsp": report.dsp_rows,
    }


def _column(rows, kinds: tuple, shape: str) -> tuple:
    """``rows`` as tuples, each checked to hold ``kinds`` exactly and to
    end in a finite float."""
    for row in rows:
        if not (isinstance(row, list) and tuple(map(type, row)) == kinds
                and math.isfinite(row[-1])):
            raise ValueError(f"{row!r} is not {shape}")
    return tuple(map(tuple, rows))


def report_from_sidecar(data: dict) -> ScoreReport:
    """Rebuild a report, pair columns included, from a ``pair_sidecar``
    dict; it equals the scored report, and so do its ``pairs``.

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
    if report.n_segments < 2:
        raise ValueError(f"n_segments must be >= 2, got {report.n_segments}")
    cfg = LdsConfig.from_dict(data["lds_config"])
    if cfg.fingerprint() != report.config_hash:
        raise ValueError("the fingerprint of lds_config differs from config_hash")
    if not (isinstance(triples, list) and isinstance(dsp_rows, list)):
        raise ValueError("pairs and dsp must be lists")
    report = replace(
        report,
        pair_triples=_column(triples, (int, int, float), "a pair [target, source, dst]"),
        dsp_rows=_column(dsp_rows, (int, float), "a dsp row [target, dsp]"),
        lds_config=cfg,
    )
    report.pairs  # checks every pair against the grid and the dsp rows
    return report


def _one_at_a_time(backend: PerplexityBackend, calls) -> Iterator:
    """``score_stream`` for a backend with only ``score``: each call's
    result, or the BackendError that failed it; BackendUnreachable is
    raised."""
    for target, context in calls:
        try:
            yield backend.score(target, context)
        except BackendUnreachable:
            raise
        except BackendError as exc:
            yield exc


def _streamed(stream, grid: SegmentGrid, pairs: list[tuple[int, int]]) -> Iterator[float]:
    segments = grid.segments
    results = stream((segments[t], segments[s]) for t, s in pairs)
    for (target, source), result in zip(pairs, results):
        if isinstance(result, BackendError):
            raise BackendError(
                f"conditional scoring failed at pair ({target}, {source}): {result}",
                retriable=result.retriable,
                segment_index=target,
            ) from result
        yield ppl_from_sum(*result)


def _conditional(
    backend: PerplexityBackend, grid: SegmentGrid, rows: dict[int, list[int]]
) -> Iterator[float]:
    """Conditional perplexity of each pair of ``rows``, target-ascending.

    A backend with ``score_pairs`` scores the whole set in one call, made
    here, before any unconditional value is read; its sums become
    perplexities pair by pair as they are taken, so a failure surfaces at
    the same pair as on the streamed path. Every other backend streams:
    one with ``score_stream`` (an external scorer) is sent the pairs in
    windows, each when the first of its values is taken, and one with
    only ``score`` is called pair by pair as each value is taken. Each
    answer brings its own token count.
    """
    order = sorted(rows)
    batch = getattr(backend, "score_pairs", None)
    if batch is not None:
        sums = batch(
            grid.segments,
            [t for t in order for _ in rows[t]],
            [s for t in order for s in rows[t]],
        )
        return map(ppl_from_sum, sums, repeat(grid.segment_len))
    stream = getattr(backend, "score_stream", None) or functools.partial(_one_at_a_time, backend)
    return _streamed(stream, grid, [(t, s) for t in order for s in rows[t]])


def score_document(
    backend: PerplexityBackend, grid: SegmentGrid, cfg: LdsConfig, keep_pairs: bool = True
) -> ScoreReport:
    """The one scoring path: ``grid``'s score under ``cfg``. ``exact``
    rows hold every source below each target; ``sampled`` rows hold the
    pairs drawn from the document's own seed, ``derive_seed(cfg.seed,
    grid.doc_id)``, so a document scores the same alone as in a corpus.

    Rows are walked target-ascending and sources source-ascending, so a
    sample that happens to cover all pairs performs the identical float
    operations, in the identical order, as an exact run. keep_pairs=True
    fills the report's pair columns, one extend per row and no
    ``PairScore``; keep_pairs=False leaves them empty. The accumulated
    score is the same either way.
    """
    n = grid.n_segments
    if cfg.mode == "exact":
        rows = {t: list(range(t)) for t in range(1, n)}
    else:
        rows = {}
        for target, source in sample_pairs(n, cfg.sample_size, derive_seed(cfg.seed, grid.doc_id)):
            rows.setdefault(target, []).append(source)
    conditional = _conditional(backend, grid, rows)
    unconditional = cached_unconditional(backend, grid)
    total = 0.0
    gated_count = 0
    n_pairs = 0
    triples: list[tuple[int, int, float]] = []
    dsp_rows: list[tuple[int, float]] = []
    for target in sorted(rows):
        sources = rows[target]
        u = unconditional[target]
        dst_row = [dst(u, value) for value in islice(conditional, len(sources))]
        dsp_value = dsp(dst_row)
        for source, dst_value in zip(sources, dst_row):
            ddi_value = ddi(target, source, n)
            pairwise = lds_pair(dst_value, ddi_value, dsp_value, cfg)
            if dst_value > cfg.tau:
                total += pairwise
                gated_count += 1
            n_pairs += 1
        if keep_pairs:
            triples.extend(zip(repeat(target), sources, dst_row))
            dsp_rows.append((target, dsp_value))
    return ScoreReport(
        doc_id=grid.doc_id,
        n_segments=n,
        mode=cfg.mode,
        lds=total,
        pair_count=n_pairs,
        gated_count=gated_count,
        config_hash=cfg.fingerprint(),
        source=grid.source,
        pair_triples=tuple(triples),
        dsp_rows=tuple(dsp_rows),
        lds_config=cfg if keep_pairs else None,
    )


# Old names, outside ``__all__``, kept only because perfbench's own tests
# import them; each is ``score_document`` under the mode it names.
def lds_exact(backend, grid, cfg, keep_pairs=True) -> ScoreReport:
    return score_document(backend, grid, cfg.replace(mode="exact"), keep_pairs)


def lds_sampled(backend, grid, cfg, seed=None, keep_pairs=True) -> ScoreReport:
    if seed not in (None, derive_seed(cfg.seed, grid.doc_id)):
        raise ValueError("a document's sample seed is derive_seed(cfg.seed, grid.doc_id)")
    return score_document(backend, grid, cfg.replace(mode="sampled"), keep_pairs)

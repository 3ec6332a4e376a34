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

Kept pair records are array columns, (target, source, dst) per pair and
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
from itertools import starmap
from typing import Iterator, NamedTuple, Sequence, get_type_hints

import numpy as np

# ppl_given is not called here; perfbench's tracer times longdep.lds.ppl_given.
from .backends import PerplexityBackend, cached_unconditional, failed_at, ppl_from_sum, ppl_given
from .corpus import SegmentGrid
from .errors import BackendError, BackendUnreachable, ConfigError, ScoringError
from .jsonio import Columns, fingerprint

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


def _pair_from_linear(linear: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Pairs enumerate target-major: linear = t*(t-1)/2 + s with s < t. The
    # float root lands within a step or two of t; integer steps make it exact.
    t = ((1.0 + np.sqrt(1.0 + 8.0 * linear)) // 2).astype(np.int64)
    while (over := t * (t - 1) // 2 > linear).any():
        t -= over
    while (under := (t + 1) * t // 2 <= linear).any():
        t += under
    return t, linear - t * (t - 1) // 2


def derive_seed(base_seed: int, doc_id: str) -> int:
    """Per-document seed, stable across processes and worker counts."""
    digest = hashlib.sha256(f"{base_seed}\x1f{doc_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


def sample_pairs(n_segments: int, sample_size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform without-replacement sample of (target, source) pairs, as
    int64 ``(targets, sources)`` arrays in canonical order: target
    ascending, source ascending.

    A sample_size covering every pair returns exactly the full pair set.
    """
    if n_segments < 2:
        raise ValueError("a document has at least two segments")
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    total = pair_count(n_segments)
    if sample_size >= total:
        return np.tril_indices(n_segments, -1)
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = rng.choice(total, size=sample_size, replace=False)
    chosen.sort()
    return _pair_from_linear(chosen)


class PairColumns(NamedTuple):
    """Kept pairs as arrays: int64 ``targets`` and ``sources`` and float64
    ``dst``, one entry per pair in scoring order; int64 ``rows`` and
    float64 ``dsp``, one entry per target row."""

    targets: np.ndarray
    sources: np.ndarray
    dst: np.ndarray
    rows: np.ndarray
    dsp: np.ndarray


def _accumulate(
    columns: PairColumns, n_segments: int, cfg: LdsConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """``(ddi, dsp, pairwise, gated, lds)`` of the pair ``columns`` of an
    ``n_segments`` grid, one array entry per pair.

    Each entry is the float that ``ddi``, ``lds_pair`` and the gate give
    that pair, and ``lds`` adds the gated pairwise values in column order
    from 0.0, so it has the bits of a Python loop over the pairs. A pair
    outside the grid, or a target without a dsp row, raises ValueError;
    a dsp row of a target that no pair names is left out.
    """
    targets, sources, dst_values, rows, dsp_of_rows = columns
    outside = (sources < 0) | (sources >= targets) | (targets >= n_segments)
    if outside.any():
        i = outside.argmax()
        raise ValueError(
            f"need 0 <= source < target < {n_segments}, got ({targets[i]}, {sources[i]})"
        )
    dsp_per_row = np.full(int(targets.max(initial=-1)) + 1, np.nan)
    named = (rows >= 0) & (rows < len(dsp_per_row))
    dsp_per_row[rows[named]] = dsp_of_rows[named]
    dsp_values = dsp_per_row[targets]
    missing = np.isnan(dsp_values)
    if missing.any():
        raise ValueError(f"target {targets[missing.argmax()]} has no dsp row")
    ddi_values = (targets - sources) / (n_segments - 1)
    gated = dst_values > cfg.tau
    # Large weights can overflow a pairwise value or the sum. The result
    # is then inf or nan, which the callers refuse, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        pairwise = lds_pair(dst_values, ddi_values, dsp_values, cfg)
        lds = np.add.accumulate(np.concatenate(([0.0], pairwise[gated])))[-1]
    return ddi_values, dsp_values, pairwise, gated, float(lds)


class PairScore(NamedTuple):
    target: int
    source: int
    dst: float
    ddi: float
    dsp: float
    pairwise: float
    gated: bool


@dataclass(frozen=True, eq=False)
class ScoreReport:
    """One document's score; the repr=True fields are its reports.jsonl
    row. With pairs kept, it also holds the pair columns its sidecar
    stores, and ``lds_config``, the config they were scored under.

    Two reports are equal when their row fields and ``lds_config`` are
    equal and their columns hold the same bits."""

    doc_id: str
    n_segments: int
    mode: str
    lds: float
    pair_count: int
    gated_count: int
    config_hash: str
    source: str = ""
    columns: PairColumns | None = field(default=None, repr=False)
    lds_config: LdsConfig | None = field(default=None, repr=False)

    def __eq__(self, other):
        if type(other) is not ScoreReport:
            return NotImplemented
        return self._key() == other._key()

    def _key(self) -> tuple:
        bits = None if self.columns is None else [(c.dtype.str, c.tobytes()) for c in self.columns]
        return (*self.to_dict().values(), bits, self.lds_config)

    @functools.cached_property
    def pairs(self) -> tuple[PairScore, ...]:
        """The pair columns as ``PairScore``s, with ddi, pairwise and the
        gate computed by ``score_document``'s ``_accumulate``, so every
        value equals the scored one. A target without a dsp row, or a
        pair outside the grid, raises ValueError."""
        if self.columns is None:
            return ()
        values = _accumulate(self.columns, self.n_segments, self.lds_config)[:4]
        return tuple(starmap(PairScore, zip(*(c.tolist() for c in (*self.columns[:3], *values)))))

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
    row, plus ``lds_config`` (``to_dict()``) and its pair columns as
    ``pairs``, [target, source, dst] rows, and ``dsp``, [target, dsp]
    rows, which ``canonical_dumps`` writes straight from the arrays."""
    return {
        **report.to_dict(),
        "lds_config": report.lds_config.to_dict(),
        "pairs": Columns(report.columns[:3]),
        "dsp": Columns(report.columns[3:]),
    }


def _columns(rows, kinds: tuple, shape: str) -> list[np.ndarray]:
    """The JSON list ``rows`` as one array per position, int64 for an int
    and float64 for a float. Each row must hold ``kinds`` exactly and end
    in a finite float, and each int must fit in int64."""
    for row in rows:
        if not (isinstance(row, list) and tuple(map(type, row)) == kinds
                and math.isfinite(row[-1])):
            raise ValueError(f"{row!r} is not {shape}")
    try:
        return [np.array(column, dtype=kind if kind is float else np.int64)
                for column, kind in zip(list(zip(*rows)) or [()] * len(kinds), kinds)]
    except OverflowError as exc:
        raise ValueError(f"an index is out of range: {exc}") from exc


def report_from_sidecar(data: dict) -> ScoreReport:
    """Rebuild a report, pair columns included, from a ``pair_sidecar``
    dict; it equals the scored report, and so do its ``pairs``.

    A malformed sidecar, one in the old format with an object per pair,
    one that lists a pair or a target's dsp row twice, one with a value
    that scoring cannot give (a dst above 1, a dsp outside [0, 1]), and
    one whose row (``pair_count``, ``gated_count``, ``lds``, ``mode``)
    disagrees with its own columns, raises KeyError, ValueError or
    ConfigError.
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
    if not 2 <= report.n_segments < 2**63:
        raise ValueError(f"n_segments must be in [2, 2**63), got {report.n_segments}")
    cfg = LdsConfig.from_dict(data["lds_config"])
    if cfg.fingerprint() != report.config_hash:
        raise ValueError("the fingerprint of lds_config differs from config_hash")
    if not (isinstance(triples, list) and isinstance(dsp_rows, list)):
        raise ValueError("pairs and dsp must be lists")
    columns = PairColumns(
        *_columns(triples, (int, int, float), "a pair [target, source, dst]"),
        *_columns(dsp_rows, (int, float), "a dsp row [target, dsp]"),
    )
    if (columns.dst > 1.0).any() or ((columns.dsp < 0.0) | (columns.dsp > 1.0)).any():
        raise ValueError("it holds a dst above 1 or a dsp outside [0, 1], which no score gives")
    for what, keys in (("pair [{}, {}]", columns[:2]), ("dsp row of target {}", columns[3:4])):
        distinct, counts = np.unique(np.stack(keys, axis=1), axis=0, return_counts=True)
        if (counts > 1).any():
            repeated = what.format(*distinct[counts.argmax()].tolist())
            raise ValueError(f"the {repeated} is listed more than once")
    *_, gated, lds = _accumulate(columns, report.n_segments, cfg)
    for name, stored, recomputed in (
        ("pair_count", report.pair_count, len(columns.targets)),
        ("gated_count", report.gated_count, int(np.count_nonzero(gated))),
        ("lds", report.lds, lds),
        ("mode", report.mode, cfg.mode),
    ):
        if stored != recomputed:
            raise ValueError(f"{name} is {stored!r}, but its columns give {recomputed!r}")
    return replace(report, columns=columns, lds_config=cfg)


def _one_at_a_time(backend: PerplexityBackend, segments, targets, sources) -> Iterator:
    """``score_pairs`` for a backend with only ``score``: each pair is
    scored when its result is taken, and a failing one raises
    its ``failed_at``; BackendUnreachable is raised as it is."""
    for target, source in zip(targets, sources):
        try:
            yield backend.score(segments[target], segments[source])
        except BackendUnreachable:
            raise
        except BackendError as exc:
            raise failed_at(exc, target, source) from exc


def score_document(
    backend: PerplexityBackend, grid: SegmentGrid, cfg: LdsConfig, keep_pairs: bool = True
) -> ScoreReport:
    """The one scoring path: ``grid``'s score under ``cfg``. ``exact``
    takes every pair; ``sampled`` takes the pairs drawn from the
    document's own seed, ``derive_seed(cfg.seed, grid.doc_id)``, so a
    document scores the same alone as in a corpus.

    Pairs are in canonical order, target-ascending and source-ascending,
    and each step after the backend call is one array pass over them, so
    a sample that happens to cover all pairs performs the identical float
    operations, in the identical order, as an exact run. Only ``dsp``
    runs per row, and only the targets' unconditional perplexities are
    asked for. keep_pairs=True fills the report's pair columns and builds
    no ``PairScore``; keep_pairs=False leaves them None. The accumulated
    score is the same either way. A score that is not finite, as weights
    large enough to overflow give, raises ScoringError.
    """
    n = grid.n_segments
    if cfg.mode == "exact":
        targets, sources = np.tril_indices(n, -1)
    else:
        targets, sources = sample_pairs(n, cfg.sample_size, derive_seed(cfg.seed, grid.doc_id))
    # The batch call comes first, so an external scorer's unconditional
    # requests go out before any unconditional value is read.
    batch = getattr(backend, "score_pairs", None) or functools.partial(_one_at_a_time, backend)
    results = batch(grid.segments, targets, sources)
    starts = np.flatnonzero(np.diff(targets, prepend=-1))
    rows = targets[starts].tolist()
    per_segment = np.empty(n)
    per_segment[rows] = cached_unconditional(backend, grid, rows)
    unconditional = per_segment[targets]
    # The pair results are taken last, so a refused unconditional request
    # sends no pair window, and a lazy batch (an external scorer's
    # windows, or one pair at a time) is scored no further than the
    # document gets. extend keeps the values taken before an error, so
    # the failing pair is found with no step per pair.
    conditional: list[float] = []
    try:
        conditional.extend(starmap(ppl_from_sum, results))
    except ScoringError as exc:
        raise failed_at(exc, targets[len(conditional)], sources[len(conditional)]) from exc
    dst_values = (unconditional - np.fromiter(conditional, float, len(targets))) / unconditional
    dst_list = dst_values.tolist()
    bounds = [*starts.tolist(), len(dst_list)]
    dsp_values = np.array([dsp(dst_list[a:b]) for a, b in zip(bounds, bounds[1:])])
    columns = PairColumns(targets, sources, dst_values, targets[starts], dsp_values)
    *_, gated, total = _accumulate(columns, n, cfg)
    if not math.isfinite(total):
        raise ScoringError(f"document {grid.doc_id!r} scores {total}, which is not finite")
    return ScoreReport(
        doc_id=grid.doc_id,
        n_segments=n,
        mode=cfg.mode,
        lds=total,
        pair_count=len(targets),
        gated_count=int(np.count_nonzero(gated)),
        config_hash=cfg.fingerprint(),
        source=grid.source,
        columns=columns if keep_pairs else None,
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

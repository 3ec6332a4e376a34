"""Independent reference for checking the benchmark's outputs.

Recomputes a document's LDS straight from the formulas in PAPER.md,
without going through ``longdep.lds``, ``longdep.backends`` or the
n-gram backend's memoized scoring:

    ppl(i | j) = exp(-logprob_sum / token_count)
    dst        = (ppl(i) - ppl(i | j)) / ppl(i)
    ddi        = (i - j) / (N - 1)
    dsp        = 1 - H(softmax(dst row)) / log(m), 0 for a 1-element row
    pairwise   = (alpha * dst + beta * ddi) * dsp      (multiplicative)
    LDS        = sum of pairwise over pairs with dst > tau

Sampled mode draws its pairs as the README fixes them: the per-document
seed is the low 63 bits of sha256(f"{seed}\\x1f{doc_id}"), and the pair
set is a uniform without-replacement draw of linear pair indices
(target-major) from numpy's PCG64, sorted. The tolerance is fixed in
advance and loose enough for any summation order.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Sequence

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12


def doc_seed(seed: int, doc_id: str) -> int:
    digest = hashlib.sha256(f"{seed}\x1f{doc_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


def all_pairs(n_segments: int) -> list[tuple[int, int]]:
    return [(t, s) for t in range(1, n_segments) for s in range(t)]


def sampled_pairs(n_segments: int, sample_size: int, seed: int) -> list[tuple[int, int]]:
    pairs = all_pairs(n_segments)
    if sample_size >= len(pairs):
        return pairs
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = sorted(int(ix) for ix in rng.choice(len(pairs), size=sample_size, replace=False))
    return [pairs[ix] for ix in chosen]


def _dsp(row: Sequence[float]) -> float:
    m = len(row)
    if m == 1:
        return 0.0
    peak = max(row)
    weights = [math.exp(v - peak) for v in row]
    z = math.fsum(weights)
    entropy = -math.fsum(w / z * math.log(w / z) for w in weights if w > 0.0)
    return min(1.0, max(0.0, 1.0 - entropy / math.log(m)))


def reference_lds(
    segments: Sequence[Sequence],
    pairs: Sequence[tuple[int, int]],
    logprob: Callable[[Sequence, Sequence | None], tuple[float, int]],
    tau: float = 0.05,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> tuple[float, int]:
    """(LDS, pair count) of one document under the multiplicative variant.

    ``logprob(target, context)`` returns (summed natural log prob, token
    count); ``context`` is None for the unconditional score.
    """
    n = len(segments)

    def ppl(target, context):
        total, count = logprob(target, context)
        return math.exp(-total / count)

    uncond = [ppl(seg, None) for seg in segments]
    rows: dict[int, list[int]] = {}
    for target, source in pairs:
        rows.setdefault(target, []).append(source)
    terms = []
    for target, sources in rows.items():
        u = uncond[target]
        dst_row = [(u - ppl(segments[target], segments[s])) / u for s in sources]
        sharp = _dsp(dst_row)
        for source, d in zip(sources, dst_row):
            if d > tau:
                terms.append((alpha * d + beta * (target - source) / (n - 1)) * sharp)
    return math.fsum(terms), len(pairs)


def lds_matches(program: float, reference: float) -> bool:
    return math.isclose(program, reference, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def accuracy_at_k(lds_by_id: dict[str, float], labels: dict[str, int]) -> float:
    """Share of positives among the top k documents, k = number of
    positives; ties broken by doc id."""
    k = sum(labels.values())
    ranked = sorted(lds_by_id, key=lambda doc_id: (-lds_by_id[doc_id], doc_id))
    return sum(labels[doc_id] for doc_id in ranked[:k]) / k


def prolong_selection(rows: Sequence[dict], fraction: float) -> list[str]:
    """Retained ids of a per-source top-fraction selection, in the order
    ``select`` lists them: sources sorted, rank order within a source."""
    by_source: dict[str, list[dict]] = {}
    for row in rows:
        by_source.setdefault(row["source"], []).append(row)
    retained = []
    for source in sorted(by_source):
        ranked = sorted(by_source[source], key=lambda r: (-r["lds"], r["doc_id"]))
        retained.extend(r["doc_id"] for r in ranked[: math.ceil(fraction * len(ranked))])
    return retained

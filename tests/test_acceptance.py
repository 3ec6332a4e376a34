"""Acceptance gate: seven end-to-end criteria with pinned tolerances.

Each test prints one measured-values line and asserts the criterion's
stated bounds, so a verbose run shows exactly one pass/fail verdict per
criterion. Budgets are wall-clock seconds for the criterion's whole
workload on a single worker.
"""

import math
import statistics
import time

import pytest
import support
from scipy.stats import hypergeom, ranksums, spearmanr

import numpy as np

from longdep.bench import (
    SynthSpec,
    generate_testset,
    repeated_token_document,
    run_bench,
)
from longdep.corpus import SegmentGrid, segment
from longdep.lds import LdsConfig, pair_count, score_document
from longdep.ngram import NGramBackend, train_ngram
from longdep.pipeline import build_manifest, reports_only, retained_ids, score_corpus

REL_TOL_C1 = 1e-9
C1_BUDGET_S = 1.0
C2_EPS = 1e-6
C2_BUDGET_S = 10.0
C3_P = 0.01
C3_BUDGET_S = 300.0
C4_SPEARMAN = 0.9
C4_BUDGET_S = 1800.0
C5_SE_MULT = 3.0
C6_SPEEDUP = 2.0
C6_P = 0.01
C6_REPEATS = 3
C7_CASES = 1000
C7_BUDGET_S = 600.0


def verdict(name, ok, detail):
    print(f"[{name}] {detail}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_exact_score_matches_hand_expansion():
    """A fully scripted three-segment document reproduces the score
    expanded by hand, term by term."""
    start = time.perf_counter()
    s0, s1, s2 = ("a",), ("b",), ("c",)
    backend = support.ScriptedBackend(
        {
            (s0, None): 4.0,
            (s1, None): 5.0,
            (s2, None): 6.0,
            (s1, s0): 3.0,
            (s2, s0): 5.88,
            (s2, s1): 2.0,
        }
    )
    grid = SegmentGrid(doc_id="hand", segment_len=1, segments=(s0, s1, s2))
    cfg = LdsConfig(segment_len=1, truncate_len=3, mode="exact", tau=0.05)
    report = score_document(backend, grid, cfg)

    # Target 1 sees one source: dst(5, 3) = 0.4, a single-element row
    # has sharpness 0, so the gated pair contributes exactly 0.
    dst_10 = (5.0 - 3.0) / 5.0
    # Target 2's row: dst(6, 5.88) = 0.02 sits below tau and is gated
    # out; dst(6, 2) = 2/3 passes.
    dst_20 = (6.0 - 5.88) / 6.0
    dst_21 = (6.0 - 2.0) / 6.0
    e0, e1 = math.exp(dst_20), math.exp(dst_21)
    z = e0 + e1
    p0, p1 = e0 / z, e1 / z
    entropy = -(p0 * math.log(p0) + p1 * math.log(p1))
    dsp_2 = (math.log(2) - entropy) / math.log(2)
    ddi_21 = (2 - 1) / (3 - 1)
    expected = (dst_10 + 0.5) * 0.0 + (dst_21 + ddi_21) * dsp_2

    wall = time.perf_counter() - start
    rel_err = abs(report.lds - expected) / abs(expected)
    ok = (
        rel_err <= REL_TOL_C1
        and report.gated_count == 2
        and report.pair_count == 3
        and wall < C1_BUDGET_S
    )
    verdict(
        "criterion 1",
        ok,
        f"rel_err={rel_err:.3e} (tol {REL_TOL_C1:.0e}), gated=2/3, "
        f"wall={wall:.3f}s < {C1_BUDGET_S}s",
    )


def test_criterion_2_repeated_token_document_annihilates():
    """The one-token pathology: every pair is gated, yet uniform rows
    zero the multiplicative score; the other variants stay positive."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    background = [f"w{v:03d}" for v in rng.integers(0, 200, size=20000)]
    for pos in range(1000, 20000, 2000):
        background[pos : pos + 6] = ["r"] * 6
    backend = NGramBackend(train_ngram([background], order=3, k=0.01))

    doc = repeated_token_document("rep", 64 * 16)
    grid = segment(doc, 16, 64 * 16)
    base = LdsConfig(segment_len=16, truncate_len=64 * 16, mode="exact", tau=0.05)

    multiplicative = score_document(backend, grid, base, keep_pairs=False)
    bare = score_document(backend, grid, base.replace(dsp_variant="none"), keep_pairs=False)
    additive = score_document(
        backend, grid, base.replace(dsp_variant="additive"), keep_pairs=False
    )
    wall = time.perf_counter() - start

    n_pairs = pair_count(64)
    ok = (
        abs(multiplicative.lds) < C2_EPS
        and bare.lds > 0.0
        and bare.gated_count == n_pairs
        and additive.lds > 0.0
        and wall < C2_BUDGET_S
    )
    verdict(
        "criterion 2",
        ok,
        f"multiplicative={multiplicative.lds:.3e} (eps {C2_EPS:.0e}), "
        f"none={bare.lds:.3f}, additive={additive.lds:.3f}, "
        f"gated={bare.gated_count}/{n_pairs}, wall={wall:.1f}s < {C2_BUDGET_S}s",
    )


def test_criterion_3_structured_documents_outrank_concatenations():
    """Documents built with planted long-range dependencies score above
    concatenations of unrelated short texts, by rank-sum test."""
    start = time.perf_counter()
    spec = SynthSpec(n_positive=50, n_negative=50, seed=0)
    testset = generate_testset(spec, negative_kinds=("concat-shorts",))
    backend = NGramBackend(train_ngram(testset.docs, order=3, k=0.01))
    cfg = LdsConfig(
        segment_len=spec.segment_len, truncate_len=spec.doc_token_len, mode="exact"
    )
    reports = reports_only(score_corpus(testset.docs, backend, cfg))
    by_id = {r.doc_id: r.lds for r in reports}
    pos = [by_id[d] for d, label in testset.labels.items() if label == 1]
    neg = [by_id[d] for d, label in testset.labels.items() if label == 0]
    stat = ranksums(pos, neg, alternative="greater")
    wall = time.perf_counter() - start

    ok = (
        len(pos) == len(neg) == 50
        and stat.pvalue < C3_P
        and statistics.median(pos) > statistics.median(neg)
        and wall < C3_BUDGET_S
    )
    verdict(
        "criterion 3",
        ok,
        f"median pos={statistics.median(pos):.3f} > neg={statistics.median(neg):.3f}, "
        f"p={stat.pvalue:.3e} < {C3_P}, wall={wall:.1f}s < {C3_BUDGET_S}s",
    )


def test_criterion_4_sampling_is_exact_at_coverage_and_faithful_below():
    """A covering sample is bit-identical to exact mode; a 5000-pair
    sample preserves the exact ranking at Spearman >= 0.9."""
    start = time.perf_counter()

    rng = np.random.default_rng(0)
    backend = support.HashBackend()
    mismatches = 0
    for i in range(30):
        grid = support.make_grid(rng, doc_id=f"g{i}", n_segments=16, segment_len=2)
        total = pair_count(16)
        cfg = LdsConfig(
            segment_len=2,
            truncate_len=32,
            mode="sampled",
            sample_size=total + int(rng.integers(0, 40)),
        )
        sampled = score_document(backend, grid, cfg.replace(seed=int(rng.integers(0, 2**31))))
        exact = score_document(backend, grid, cfg.replace(mode="exact"))
        same = (
            sampled.lds == exact.lds
            and sampled.pair_count == exact.pair_count == total
            and sampled.gated_count == exact.gated_count
            and sampled.pairs == exact.pairs
        )
        mismatches += 0 if same else 1

    spec = SynthSpec(n_positive=100, n_negative=100, seed=0)
    testset = generate_testset(spec)
    model = train_ngram(testset.docs, order=3, k=0.01)
    base = LdsConfig(
        segment_len=spec.segment_len, truncate_len=spec.doc_token_len, seed=0
    )
    exact_reports = reports_only(
        score_corpus(testset.docs, NGramBackend(model), base.replace(mode="exact"))
    )
    sampled_reports = reports_only(
        score_corpus(
            testset.docs,
            NGramBackend(model),
            base.replace(mode="sampled", sample_size=5000),
        )
    )
    exact_by_id = {r.doc_id: r.lds for r in exact_reports}
    sampled_by_id = {r.doc_id: r.lds for r in sampled_reports}
    ids = sorted(exact_by_id)
    rho = spearmanr([exact_by_id[d] for d in ids], [sampled_by_id[d] for d in ids]).statistic
    wall = time.perf_counter() - start

    ok = (
        mismatches == 0
        and len(ids) == 200
        and rho >= C4_SPEARMAN
        and wall < C4_BUDGET_S
    )
    verdict(
        "criterion 4",
        ok,
        f"covering-sample mismatches={mismatches}/30, spearman={rho:.4f} >= "
        f"{C4_SPEARMAN}, n_docs={len(ids)}, wall={wall:.1f}s < {C4_BUDGET_S}s",
    )


def test_criterion_5_selection_means_order_correctly():
    """Top-fraction retention beats keeping everything, and a random
    subset of the same size matches the full mean within noise."""
    spec = SynthSpec(
        n_positive=20, n_negative=20, n_segments=64, segment_len=16, seed=0
    )
    testset = generate_testset(spec)
    backend = NGramBackend(train_ngram(testset.docs, order=3, k=0.01))
    cfg = LdsConfig(
        segment_len=spec.segment_len, truncate_len=spec.doc_token_len, mode="exact"
    )
    outcomes = list(score_corpus(testset.docs, backend, cfg))
    reports = reports_only(outcomes)

    manifest = build_manifest(reports, outcomes, 0.5, "prolong", seed=0, per_source=False)
    stats = manifest["stats"]
    full_scores = [r.lds for r in reports]
    n, k = len(full_scores), stats["random"]["count"]
    se = (
        statistics.pstdev(full_scores)
        / math.sqrt(k)
        * math.sqrt((n - k) / (n - 1))
    )
    prolong_ok = stats["prolong"]["mean"] >= stats["full"]["mean"]
    random_ok = abs(stats["random"]["mean"] - stats["full"]["mean"]) <= C5_SE_MULT * se
    pooled_ok = stats["prolong"]["mean"] >= stats["random"]["mean"]

    scored_ids = {r.doc_id for r in reports}
    retained = set(retained_ids(manifest))
    ranked = {d["doc_id"] for e in manifest["sources"] for d in e["documents"]}
    sets_ok = (
        ranked == scored_ids
        and retained <= ranked
        and len(retained) == math.ceil(0.5 * len(scored_ids))
    )

    per_source = build_manifest(reports, outcomes, 0.5, "prolong", seed=0, per_source=True)
    source_ok = all(
        e["stats"]["prolong"]["mean"] >= e["stats"]["full"]["mean"] for e in per_source["sources"]
    ) and len(per_source["sources"]) == 4

    ok = prolong_ok and random_ok and pooled_ok and sets_ok and source_ok
    verdict(
        "criterion 5",
        ok,
        f"prolong={stats['prolong']['mean']:.3f} >= full={stats['full']['mean']:.3f}, "
        f"|random-full|={abs(stats['random']['mean'] - stats['full']['mean']):.4f} <= "
        f"{C5_SE_MULT}*SE={C5_SE_MULT * se:.4f}, retained={len(retained)}/{len(scored_ids)}",
    )


def test_criterion_6_throughput_scales_and_accuracy_beats_chance():
    """Smaller pair budgets speed scoring at least 2x, and ranking
    accuracy on the labeled corpus beats the random-ranking null.

    The speedup is the median over C6_REPEATS runs of the T=500/T=5000
    cell pair, the cells alternating, so that one burst of load on the
    machine cannot decide the ratio."""
    spec = SynthSpec(n_positive=50, n_negative=50, seed=0)
    testset = generate_testset(spec)
    model = train_ngram(testset.docs, order=3, k=0.01)
    speedups, statuses = [], set()
    for _ in range(C6_REPEATS):
        results = run_bench(
            testset,
            [("ngram", lambda: NGramBackend(model))],
            sample_sizes=(500, 5000),
        )
        by_t = {r.sample_size: r for r in results}
        fast, slow = by_t[500], by_t[5000]
        statuses.update((fast.status, slow.status))
        speedups.append(fast.docs_per_second / slow.docs_per_second)
    speedup = statistics.median(speedups)

    k = testset.n_positive
    hits = round(slow.accuracy_at_k * k)
    # Null model: 50 of 100 ranks drawn at random hold `hits` positives.
    pvalue = float(hypergeom.sf(hits - 1, 100, 50, k))

    ok = (
        statuses == {"ok"}
        and speedup >= C6_SPEEDUP
        and slow.accuracy_at_k > 0.5
        and pvalue < C6_P
    )
    verdict(
        "criterion 6",
        ok,
        f"speedups {', '.join(f'{x:.2f}x' for x in speedups)} "
        f"(median {speedup:.2f}x >= {C6_SPEEDUP}x), "
        f"accuracy@{k}={slow.accuracy_at_k:.3f} ({hits}/{k}), p={pvalue:.3e} < {C6_P}",
    )


def test_criterion_7_property_suite_at_scale():
    """Every module invariant holds over 1000 generated cases each."""
    start = time.perf_counter()
    failures = []
    for name, check in support.PROPERTY_CHECKS.items():
        try:
            check(n_cases=C7_CASES)
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    wall = time.perf_counter() - start
    ok = not failures and wall < C7_BUDGET_S
    verdict(
        "criterion 7",
        ok,
        f"{len(support.PROPERTY_CHECKS)} properties x {C7_CASES} cases, "
        f"failures={failures or 0}, wall={wall:.1f}s < {C7_BUDGET_S}s",
    )

"""Core scoring math: dst, ddi, dsp, pair combination, and document scores."""

import hashlib
import json
import math
from dataclasses import replace

import pytest
from support import (
    CountingBackend,
    HashBackend,
    ScriptedBackend,
    make_grid,
    reference_pair_from_linear,
    reference_sample_pairs,
    reference_score_document,
)

import numpy as np

from longdep.cli import main
from longdep.corpus import SegmentGrid
from longdep.errors import ConfigError
from longdep.heatmap import render_heatmap
from longdep.ngram import NGramBackend, train_ngram
from longdep.jsonio import canonical_dumps, read_json, write_canonical
import longdep.lds
from longdep.lds import (
    DSP_VARIANTS,
    LdsConfig,
    ddi,
    derive_seed,
    dsp,
    dst,
    lds_pair,
    pair_count,
    pair_sidecar,
    report_from_sidecar,
    sample_pairs,
    score_document,
)


class TestDst:
    def test_relative_drop(self):
        assert dst(4.0, 3.0) == pytest.approx(0.25, rel=1e-12)

    def test_harmful_context_goes_negative(self):
        assert dst(2.0, 3.0) == pytest.approx(-0.5, rel=1e-12)

    def test_identical_perplexities_give_zero(self):
        assert dst(5.0, 5.0) == 0.0

    def test_bounded_above_by_one(self):
        assert dst(1e6, 1e-6) < 1.0
        # Ratios below one ulp saturate the float result at the bound.
        assert dst(1e12, 1e-12) <= 1.0

    def test_validation(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                dst(bad, 1.0)
            with pytest.raises(ValueError):
                dst(1.0, bad)


class TestDdi:
    def test_normalized_distance(self):
        assert ddi(3, 1, 5) == pytest.approx(0.5, rel=1e-12)

    def test_adjacent_pair(self):
        assert ddi(4, 3, 9) == pytest.approx(1 / 8, rel=1e-12)

    def test_full_span_is_one(self):
        assert ddi(6, 0, 7) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ddi(1, 0, 1)
        with pytest.raises(ValueError):
            ddi(2, 2, 5)
        with pytest.raises(ValueError):
            ddi(1, 2, 5)
        with pytest.raises(ValueError):
            ddi(5, 0, 5)
        with pytest.raises(ValueError):
            ddi(1, -1, 5)


class TestDsp:
    def test_single_element_row_is_zero(self):
        assert dsp((0.7,)) == 0.0

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            dsp(())

    def test_uniform_row_is_zero(self):
        assert dsp((0.3, 0.3, 0.3, 0.3)) == 0.0

    def test_concentrated_row_approaches_one(self):
        assert dsp((100.0, 0.0, 0.0)) > 0.99

    def test_two_element_closed_form(self):
        # Row (ln 3, 0) softmaxes to (3/4, 1/4); entropy is
        # 2 ln 2 - (3/4) ln 3, so the sharpness normalizes to
        # ((3/4) ln 3 - ln 2) / ln 2.
        want = (0.75 * math.log(3) - math.log(2)) / math.log(2)
        assert dsp((math.log(3), 0.0)) == pytest.approx(want, rel=1e-12)

    def test_shift_invariance_pinned(self):
        assert dsp((1000.0, 999.0, 998.0)) == dsp((2.0, 1.0, 0.0))

    def test_clamped_to_unit_interval(self):
        assert 0.0 <= dsp((1e6, -1e6)) <= 1.0


class TestLdsPair:
    cfg = LdsConfig(alpha=2.0, beta=3.0, gamma=5.0)

    def test_multiplicative(self):
        cfg = self.cfg.replace(dsp_variant="multiplicative")
        assert lds_pair(0.5, 0.25, 0.5, cfg) == pytest.approx(
            (2.0 * 0.5 + 3.0 * 0.25) * 0.5, rel=1e-12
        )

    def test_additive(self):
        cfg = self.cfg.replace(dsp_variant="additive")
        assert lds_pair(0.5, 0.25, 0.5, cfg) == pytest.approx(
            2.0 * 0.5 + 3.0 * 0.25 + 5.0 * 0.5, rel=1e-12
        )

    def test_none_ignores_sharpness(self):
        cfg = self.cfg.replace(dsp_variant="none")
        assert lds_pair(0.5, 0.25, 0.123, cfg) == pytest.approx(
            2.0 * 0.5 + 3.0 * 0.25, rel=1e-12
        )


def sampled(n_segments, sample_size, seed):
    """``sample_pairs``'s two arrays as (target, source) tuples, after
    checking that they are int64 columns of one length."""
    targets, sources = sample_pairs(n_segments, sample_size, seed=seed)
    assert targets.dtype == sources.dtype == np.int64
    assert targets.shape == sources.shape == (min(sample_size, pair_count(n_segments)),)
    return tuple(zip(targets.tolist(), sources.tolist()))


class TestSamplePairs:
    def test_pair_count(self):
        assert pair_count(2) == 1
        assert pair_count(8) == 28
        assert pair_count(256) == 256 * 255 // 2

    def test_covering_sample_is_the_full_canonical_set(self):
        full = tuple((t, s) for t in range(1, 5) for s in range(t))
        assert sampled(5, 10, seed=3) == full
        assert sampled(5, 999, seed=4) == full

    def test_partial_sample_shape(self):
        pairs = sampled(30, 50, seed=7)
        assert len(pairs) == 50
        assert len(set(pairs)) == 50
        assert all(0 <= s < t < 30 for t, s in pairs)
        assert list(pairs) == sorted(pairs)

    def test_seed_determinism(self):
        assert sampled(30, 50, seed=7) == sampled(30, 50, seed=7)
        assert sampled(30, 50, seed=7) != sampled(30, 50, seed=8)

    def test_every_pair_reachable(self):
        seen = set()
        for seed in range(200):
            seen.update(sampled(5, 3, seed=seed))
        assert len(seen) == pair_count(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_pairs(1, 5, seed=0)
        with pytest.raises(ValueError):
            sample_pairs(5, 0, seed=0)

    def test_same_pairs_as_the_per_pair_sampler(self):
        for n, size, seed in ((2, 1, 0), (5, 3, 1), (30, 50, 7), (256, 5000, 11), (256, 500, 12)):
            assert sampled(n, size, seed) == reference_sample_pairs(n, size, seed)

    def test_triangular_map_matches_the_integer_root(self):
        # Each t's first and last linear index, t(t-1)/2 and t(t-1)/2 - 1,
        # for t up to 2**16, then random indices up to 2**60.
        t = np.arange(1, 2**16 + 1, dtype=np.int64)
        first = t * (t - 1) // 2
        linear = np.unique(np.concatenate((first, first[1:] - 1)))
        random = np.random.default_rng(0).integers(0, 2**60, size=20000, dtype=np.int64)
        for values in (linear, random):
            want = [reference_pair_from_linear(v) for v in values.tolist()]
            got_t, got_s = longdep.lds._pair_from_linear(values)
            assert list(zip(got_t.tolist(), got_s.tolist())) == want


class TestDeriveSeed:
    def test_range_and_stability(self):
        value = derive_seed(42, "doc-1")
        assert 0 <= value < 1 << 63
        assert value == derive_seed(42, "doc-1")

    def test_distinct_documents_get_distinct_seeds(self):
        seeds = {derive_seed(0, f"doc-{i}") for i in range(10000)}
        assert len(seeds) == 10000

    def test_base_seed_matters(self):
        assert derive_seed(1, "d") != derive_seed(2, "d")


class TestLdsConfig:
    def test_defaults_are_the_reference_profile(self):
        cfg = LdsConfig()
        assert cfg.segment_len == 128
        assert cfg.truncate_len == 32768
        assert cfg.tau == 0.05
        assert (cfg.alpha, cfg.beta, cfg.gamma) == (1.0, 1.0, 1.0)
        assert cfg.mode == "sampled"
        assert cfg.sample_size == 5000
        assert cfg.dsp_variant == "multiplicative"

    @pytest.mark.parametrize(
        "changes",
        [
            {"segment_len": 0},
            {"truncate_len": 100, "segment_len": 64},
            {"tau": -0.1},
            {"tau": math.nan},
            {"alpha": math.inf},
            {"mode": "guess"},
            {"sample_size": 0},
            {"dsp_variant": "squared"},
        ],
    )
    def test_validation(self, changes):
        with pytest.raises(ConfigError):
            LdsConfig(**changes)

    def test_replace_revalidates(self):
        cfg = LdsConfig()
        assert cfg.replace(tau=0.2).tau == 0.2
        with pytest.raises(ConfigError):
            cfg.replace(tau=-1.0)

    def test_fingerprint_tracks_every_field(self):
        cfg = LdsConfig()
        base = cfg.fingerprint()
        assert base == LdsConfig().fingerprint()
        for changes in ({"tau": 0.06}, {"mode": "exact"}, {"seed": 1}):
            assert cfg.replace(**changes).fingerprint() != base


def scripted_three_segment():
    """Three single-token segments with every perplexity scripted."""
    a, b, c = ("a",), ("b",), ("c",)
    table = {
        (a, None): 2.0,
        (b, None): 4.0,
        (c, None): 8.0,
        (b, a): 2.0,
        (c, a): 4.0,
        (c, b): 2.0,
    }
    grid = SegmentGrid(doc_id="hand", segment_len=1, segments=(a, b, c))
    return ScriptedBackend(table), grid


class TestExactScoring:
    def test_hand_expansion_multiplicative(self):
        backend, grid = scripted_three_segment()
        cfg = LdsConfig(segment_len=1, truncate_len=3, mode="exact")
        report = score_document(backend, grid, cfg)

        # Target 1 row: dst(4, 2) = 0.5; single-element row has dsp 0.
        # Target 2 row: dst(8, 4) = 0.5 and dst(8, 2) = 0.75.
        z = math.exp(0.5) + math.exp(0.75)
        p0, p1 = math.exp(0.5) / z, math.exp(0.75) / z
        entropy = -(p0 * math.log(p0) + p1 * math.log(p1))
        sharp = (math.log(2) - entropy) / math.log(2)
        want = (0.5 + 1.0) * sharp + (0.75 + 0.5) * sharp

        assert report.lds == pytest.approx(want, rel=1e-12)
        assert report.pair_count == 3
        assert report.gated_count == 3
        assert report.mode == "exact"

    def test_hand_expansion_none_variant(self):
        backend, grid = scripted_three_segment()
        cfg = LdsConfig(segment_len=1, truncate_len=3, mode="exact", dsp_variant="none")
        report = score_document(backend, grid, cfg)
        assert report.lds == pytest.approx(1.0 + 1.5 + 1.25, rel=1e-12)

    def test_hand_expansion_additive(self):
        backend, grid = scripted_three_segment()
        gamma = 3.0
        cfg = LdsConfig(
            segment_len=1, truncate_len=3, mode="exact", dsp_variant="additive", gamma=gamma
        )
        mult = score_document(backend, grid, cfg.replace(dsp_variant="multiplicative"))
        by_target = {}
        for p in mult.pairs:
            by_target[p.target] = p.dsp
        want = 3.75 + gamma * (by_target[1] + 2 * by_target[2])
        report = score_document(backend, grid, cfg)
        assert report.lds == pytest.approx(want, rel=1e-12)

    def test_gate_excludes_but_keeps_row_intact(self):
        backend, grid = scripted_three_segment()
        cfg = LdsConfig(segment_len=1, truncate_len=3, mode="exact", tau=0.6)
        report = score_document(backend, grid, cfg)
        # Only (2, 1) has dst 0.75 > 0.6, yet its dsp still reflects the
        # full two-element row of target 2.
        gated = [p for p in report.pairs if p.gated]
        assert [(p.target, p.source) for p in gated] == [(2, 1)]
        assert report.gated_count == 1
        assert report.pair_count == 3
        full_row = score_document(backend, grid, cfg.replace(tau=0.05))
        by_key = {(p.target, p.source): p.dsp for p in full_row.pairs}
        assert gated[0].dsp == by_key[(2, 1)]
        assert report.lds == pytest.approx(gated[0].pairwise, rel=1e-12)

    def test_negative_dst_is_recorded_but_never_accumulated(self):
        a, b = ("a",), ("b",)
        backend = ScriptedBackend({(a, None): 2.0, (b, None): 2.0, (b, a): 4.0})
        grid = SegmentGrid(doc_id="neg", segment_len=1, segments=(a, b))
        cfg = LdsConfig(segment_len=1, truncate_len=2, mode="exact", tau=0.0)
        report = score_document(backend, grid, cfg)
        pair = report.pairs[0]
        assert pair.dst == pytest.approx(-1.0, rel=1e-12)
        assert pair.gated is False
        assert report.lds == 0.0
        assert report.gated_count == 0

    def test_report_identity_fields(self):
        backend, grid = scripted_three_segment()
        cfg = LdsConfig(segment_len=1, truncate_len=3, mode="exact")
        report = score_document(backend, grid, cfg)
        assert report.doc_id == "hand"
        assert report.n_segments == 3
        assert report.config_hash == cfg.fingerprint()


class TestSampledScoring:
    def test_partial_sample_matches_requested_pairs(self):
        rng = np.random.default_rng(5)
        grid = make_grid(rng, n_segments=10, segment_len=2)
        cfg = LdsConfig(segment_len=2, truncate_len=20, mode="sampled", sample_size=12)
        report = score_document(HashBackend(), grid, cfg.replace(seed=99))
        want = sampled(10, 12, seed=derive_seed(99, grid.doc_id))
        assert report.pair_count == 12
        assert tuple((p.target, p.source) for p in report.pairs) == want
        assert report.mode == "sampled"

    def test_seeded_rescore_is_identical(self):
        rng = np.random.default_rng(6)
        grid = make_grid(rng, n_segments=12, segment_len=2)
        cfg = LdsConfig(segment_len=2, truncate_len=24, mode="sampled", sample_size=20)
        one = score_document(HashBackend(), grid, cfg.replace(seed=4))
        two = score_document(HashBackend(), grid, cfg.replace(seed=4))
        assert one == two  # pairs included

    def test_default_seed_comes_from_config(self):
        # The sample seed is the config seed mixed with the doc id, the
        # same per-document seed a corpus run uses.
        rng = np.random.default_rng(7)
        grid = make_grid(rng, n_segments=10, segment_len=2)
        cfg = LdsConfig(
            segment_len=2, truncate_len=20, mode="sampled", sample_size=9, seed=31
        )
        report = score_document(HashBackend(), grid, cfg)
        want = sampled(10, 9, seed=derive_seed(31, grid.doc_id))
        assert tuple((p.target, p.source) for p in report.pairs) == want
        assert want != sampled(10, 9, seed=31)

    def test_unconditional_calls_deduplicated(self):
        grid = SegmentGrid(
            doc_id="dup",
            segment_len=1,
            segments=(("x",), ("y",), ("x",), ("y",)),
        )
        counting = CountingBackend(HashBackend())
        cfg = LdsConfig(segment_len=1, truncate_len=2, mode="exact")
        score_document(counting, grid, cfg)
        assert counting.unconditional_calls == 2

    def test_score_document_dispatches_on_mode(self):
        rng = np.random.default_rng(8)
        grid = make_grid(rng, n_segments=6, segment_len=2)
        exact_cfg = LdsConfig(segment_len=2, truncate_len=12, mode="exact")
        sampled_cfg = exact_cfg.replace(mode="sampled", sample_size=5)
        assert score_document(HashBackend(), grid, exact_cfg).mode == "exact"
        assert score_document(HashBackend(), grid, sampled_cfg).mode == "sampled"

    def test_keep_pairs_only_affects_records(self):
        rng = np.random.default_rng(9)
        grid = make_grid(rng, n_segments=8, segment_len=2)
        cfg = LdsConfig(segment_len=2, truncate_len=16, mode="exact")
        kept = score_document(HashBackend(), grid, cfg, keep_pairs=True)
        bare = score_document(HashBackend(), grid, cfg, keep_pairs=False)
        assert bare.pairs == ()
        assert bare.lds == kept.lds
        assert bare.gated_count == kept.gated_count


class TestReportSerialization:
    def test_pairs_excluded_by_default(self):
        backend, grid = scripted_three_segment()
        cfg = LdsConfig(segment_len=1, truncate_len=3, mode="exact")
        report = score_document(backend, grid, cfg)
        assert set(report.to_dict()) == {
            "doc_id",
            "source",
            "n_segments",
            "mode",
            "lds",
            "pair_count",
            "gated_count",
            "config_hash",
        }
        sidecar = pair_sidecar(report)
        assert {k: sidecar[k] for k in report.to_dict()} == report.to_dict()
        assert sidecar["lds_config"] == cfg.to_dict()
        pairs, dsp_rows = (json.loads(canonical_dumps(sidecar[key])) for key in ("pairs", "dsp"))
        assert pairs == [[p.target, p.source, p.dst] for p in report.pairs]
        assert [(t, s) for t, s, _ in pairs] == [(1, 0), (2, 0), (2, 1)]
        assert dsp_rows == [[1, report.pairs[0].dsp], [2, report.pairs[1].dsp]]


class ShapedBackend(HashBackend):
    """HashBackend, except for the rows the array path must get right: a
    target segment whose first token starts with "u" scores the same
    after any context (a uniform dst row), and one starting with "z"
    after a context starting with "x" gets perplexity e**10, so its dst
    is near -1000 and its softmax weight underflows to 0."""

    def score(self, target, context=None):
        if context and target[0].startswith("u"):
            return super().score(target, ("u",))
        if context and target[0].startswith("z") and context[0].startswith("x"):
            return -10.0 * len(target), len(target)
        return super().score(target, context)


def shaped_grid() -> SegmentGrid:
    kinds = "axuzbuxzcuzxdzuexzuxb"
    segments = tuple((f"{kind}{i}", f"w{i % 5}") for i, kind in enumerate(kinds))
    return SegmentGrid(doc_id="shaped", segment_len=2, segments=segments)


def _bits_case(name):
    """The backend factory and grid of one comparison case."""
    if name == "shaped":
        return ShapedBackend, shaped_grid()
    grid = make_grid(np.random.default_rng(41), n_segments=21, segment_len=2, vocab=8)
    if name == "hash":
        return HashBackend, grid
    model = train_ngram([sum(grid.segments[::2], ())], order=3, k=0.05)
    return lambda: NGramBackend(model), grid


class TestArrayPathBits:
    """``score_document``'s array path against the per-pair loop it
    replaced (``support.reference_score_document``), bit for bit."""

    @pytest.mark.parametrize("backend", ["hash", "shaped", "ngram"])
    @pytest.mark.parametrize("tau", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("dsp_variant", DSP_VARIANTS)
    @pytest.mark.parametrize("mode,sample_size", [("exact", 1), ("sampled", 25),
                                                  ("sampled", 500)])
    def test_equals_the_per_pair_loop(self, backend, tau, dsp_variant, mode, sample_size):
        make_backend, grid = _bits_case(backend)
        cfg = LdsConfig(segment_len=2, truncate_len=42, mode=mode, sample_size=sample_size,
                        dsp_variant=dsp_variant, tau=tau, alpha=0.7, beta=1.3, gamma=0.4, seed=9)
        got = score_document(make_backend(), grid, cfg)
        want = reference_score_document(make_backend(), grid, cfg)
        assert float.hex(got.lds) == float.hex(want.lds)
        assert canonical_dumps(pair_sidecar(got)) == canonical_dumps(pair_sidecar(want))
        assert got == want
        bare = score_document(make_backend(), grid, cfg, keep_pairs=False)
        assert float.hex(bare.lds) == float.hex(want.lds)
        for pair in got.pairs:
            assert pair.ddi == ddi(pair.target, pair.source, grid.n_segments)
            assert pair.pairwise == lds_pair(pair.dst, pair.ddi, pair.dsp, cfg)
            assert pair.gated == (pair.dst > tau)

    def test_shaped_grid_holds_every_edge_row(self):
        # The rows the comparison above must cover: a single-element row,
        # a uniform row whose dsp is exactly 0.0, a row whose softmax
        # underflows to p == 0, and negative dst values.
        cfg = LdsConfig(segment_len=2, truncate_len=42, mode="exact")
        report = score_document(ShapedBackend(), shaped_grid(), cfg)
        rows = {}
        for pair in report.pairs:
            rows.setdefault(pair.target, []).append(pair.dst)
        dsp_of = dict(zip(report.columns.rows.tolist(), report.columns.dsp.tolist()))
        assert len(rows[1]) == 1
        assert any(len(row) > 1 and len(set(row)) == 1 and dsp_of[t] == 0.0
                   for t, row in rows.items())
        assert any(math.exp(min(row) - max(row)) == 0.0 for row in rows.values())
        assert any(value < 0.0 for row in rows.values() for value in row)

    def test_sampled_grid_holds_single_element_rows(self):
        cfg = LdsConfig(segment_len=2, truncate_len=42, sample_size=25, seed=9)
        report = score_document(HashBackend(), shaped_grid(), cfg)
        targets = report.columns.targets.tolist()
        assert sum(targets.count(t) == 1 for t in set(targets)) >= 3


def written_and_read(tmp_path, report):
    path = str(tmp_path / "sidecar.json")
    write_canonical(path, pair_sidecar(report))
    return path, report_from_sidecar(read_json(path))


ROUND_TRIP_CFG = LdsConfig(
    segment_len=2, truncate_len=40, mode="exact", alpha=0.7, beta=1.3, gamma=0.4
)


class TestSidecarRoundTrip:
    """A written pair sidecar rebuilds every PairScore exactly."""

    @pytest.mark.parametrize(
        "cfg",
        [
            ROUND_TRIP_CFG.replace(dsp_variant="multiplicative"),
            ROUND_TRIP_CFG.replace(dsp_variant="additive"),
            ROUND_TRIP_CFG.replace(dsp_variant="none"),
            ROUND_TRIP_CFG.replace(mode="sampled", sample_size=40),
            ROUND_TRIP_CFG.replace(mode="sampled", sample_size=40, dsp_variant="additive"),
        ],
        ids=["multiplicative", "additive", "none", "sampled", "sampled-additive"],
    )
    def test_rebuilt_pairs_equal_the_scored_ones(self, tmp_path, cfg):
        grid = make_grid(np.random.default_rng(21), n_segments=20, segment_len=2)
        cfg = cfg.replace(seed=5)
        report = score_document(HashBackend(), grid, cfg)
        assert 0 < report.gated_count < report.pair_count
        if cfg.mode == "sampled":
            assert report.pair_count == 40 < pair_count(20)
        _, rebuilt = written_and_read(tmp_path, report)
        assert rebuilt == report
        assert rebuilt.pairs == report.pairs

    @pytest.mark.parametrize("value", ["dst", "pairwise"])
    @pytest.mark.parametrize("scale", ["linear", "signed-diverging"])
    def test_heatmap_from_sidecar_matches_in_memory(self, tmp_path, value, scale):
        grid = make_grid(np.random.default_rng(22), n_segments=12, segment_len=2)
        cfg = ROUND_TRIP_CFG.replace(mode="sampled", sample_size=30, seed=6)
        report = score_document(HashBackend(), grid, cfg)
        path, _ = written_and_read(tmp_path, report)
        cli_out = [str(tmp_path / "cli.ppm"), str(tmp_path / "cli.csv")]
        code = main(
            ["heatmap", "--pairs", path, "--out-image", cli_out[0], "--out-csv", cli_out[1],
             "--value", value, "--scale", scale, "--cell-size", "2"]
        )
        assert code == 0
        direct = [str(tmp_path / "direct.ppm"), str(tmp_path / "direct.csv")]
        render_heatmap(report, *direct, scale=scale, value=value, cell_size=2)
        for mine, theirs in zip(cli_out, direct):
            assert open(mine, "rb").read() == open(theirs, "rb").read()


PIN_CFG = LdsConfig(
    segment_len=2, truncate_len=20, alpha=0.7, beta=1.3, gamma=0.4, sample_size=20, seed=5
)
SIDECAR_SHA256 = {
    ("exact", "multiplicative"): "037557a9a6e4f4107a066d30a431dff6d4ebf1a0fff212c4b5d2deb493bdf21c",
    ("exact", "additive"): "414a67496ac7ecb9ecdd850f4d7033a0c71e19a04c9f5530c1ae085b42fa4625",
    ("exact", "none"): "7cc3af634e52dc766debc5db0175680df522cfd01f80c66d2ed28b9b20a9bc9e",
    ("sampled", "multiplicative"):
        "d695caede742229baf7a4dd956e8842c75832e143a9f4e2c82a0a343074b95e7",
    ("sampled", "additive"): "dc56bc395c78c75d2faaf2dcb6f0214ab21a692752437390c49cba2344e499ab",
    ("sampled", "none"): "80984800e09ba71b86f15bd57e925cc084678a9c486fa1bcbfe301c4d4e390c3",
}


@pytest.mark.parametrize("mode,dsp_variant", sorted(SIDECAR_SHA256))
def test_sidecar_bytes_are_pinned(mode, dsp_variant):
    grid = make_grid(np.random.default_rng(31), n_segments=10, segment_len=2)
    cfg = PIN_CFG.replace(mode=mode, dsp_variant=dsp_variant)
    report = score_document(HashBackend(), grid, cfg)
    text = canonical_dumps(pair_sidecar(report))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SIDECAR_SHA256[mode, dsp_variant]
    assert report_from_sidecar(json.loads(text)).pairs == report.pairs


def test_scoring_and_sidecar_build_no_pair_score(monkeypatch):
    def refuse(*args):
        raise AssertionError("a PairScore was built")

    grid = make_grid(np.random.default_rng(32), n_segments=12, segment_len=2)
    monkeypatch.setattr(longdep.lds, "PairScore", refuse)
    for mode in ("exact", "sampled"):
        report = score_document(HashBackend(), grid, PIN_CFG.replace(mode=mode, truncate_len=24))
        sidecar = pair_sidecar(report)
        assert len(json.loads(canonical_dumps(sidecar))["pairs"]) == report.pair_count
        with pytest.raises(AssertionError, match="a PairScore was built"):
            report.pairs


@pytest.mark.parametrize("column", ["dst", "dsp"])
def test_sidecar_refuses_a_value_that_is_not_finite(tmp_path, column):
    grid = make_grid(np.random.default_rng(33), n_segments=6, segment_len=2)
    report = score_document(HashBackend(), grid, PIN_CFG.replace(mode="exact", truncate_len=12))
    values = getattr(report.columns, column).copy()
    values[-1] = math.nan if column == "dst" else math.inf
    broken = replace(report, columns=report.columns._replace(**{column: values}))
    with pytest.raises(ValueError, match="not finite"):
        write_canonical(str(tmp_path / "sidecar.json"), pair_sidecar(broken))
    assert not list(tmp_path.iterdir())

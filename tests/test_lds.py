"""Core scoring math: dst, ddi, dsp, pair combination, and document scores."""

import math

import pytest
from support import CountingBackend, HashBackend, ScriptedBackend, make_grid

import numpy as np

from longdep.cli import main
from longdep.corpus import SegmentGrid
from longdep.errors import ConfigError
from longdep.heatmap import HeatmapSpec, render_heatmap
from longdep.jsonio import read_json, write_canonical
from longdep.lds import (
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


class TestSamplePairs:
    def test_pair_count(self):
        assert pair_count(2) == 1
        assert pair_count(8) == 28
        assert pair_count(256) == 256 * 255 // 2

    def test_covering_sample_is_the_full_canonical_set(self):
        full = tuple((t, s) for t in range(1, 5) for s in range(t))
        assert sample_pairs(5, 10, seed=3) == full
        assert sample_pairs(5, 999, seed=4) == full

    def test_partial_sample_shape(self):
        pairs = sample_pairs(30, 50, seed=7)
        assert len(pairs) == 50
        assert len(set(pairs)) == 50
        assert all(0 <= s < t < 30 for t, s in pairs)
        assert list(pairs) == sorted(pairs)

    def test_seed_determinism(self):
        assert sample_pairs(30, 50, seed=7) == sample_pairs(30, 50, seed=7)
        assert sample_pairs(30, 50, seed=7) != sample_pairs(30, 50, seed=8)

    def test_every_pair_reachable(self):
        seen = set()
        for seed in range(200):
            seen.update(sample_pairs(5, 3, seed=seed))
        assert len(seen) == pair_count(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_pairs(1, 5, seed=0)
        with pytest.raises(ValueError):
            sample_pairs(5, 0, seed=0)


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
        want = sample_pairs(10, 12, seed=derive_seed(99, grid.doc_id))
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
        want = sample_pairs(10, 9, seed=derive_seed(31, grid.doc_id))
        assert tuple((p.target, p.source) for p in report.pairs) == want
        assert want != sample_pairs(10, 9, seed=31)

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
        sidecar = pair_sidecar(report, cfg)
        assert {k: sidecar[k] for k in report.to_dict()} == report.to_dict()
        assert sidecar["lds_config"] == cfg.to_dict()
        assert sidecar["pairs"] == [[p.target, p.source, p.dst] for p in report.pairs]
        assert [(t, s) for t, s, _ in sidecar["pairs"]] == [(1, 0), (2, 0), (2, 1)]
        assert sidecar["dsp"] == [[1, report.pairs[0].dsp], [2, report.pairs[1].dsp]]


def written_and_read(tmp_path, report, cfg):
    path = str(tmp_path / "sidecar.json")
    write_canonical(path, pair_sidecar(report, cfg))
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
        _, rebuilt = written_and_read(tmp_path, report, cfg)
        assert rebuilt == report
        assert rebuilt.pairs == report.pairs

    @pytest.mark.parametrize("value", ["dst", "pairwise"])
    @pytest.mark.parametrize("scale", ["linear", "signed-diverging"])
    def test_heatmap_from_sidecar_matches_in_memory(self, tmp_path, value, scale):
        grid = make_grid(np.random.default_rng(22), n_segments=12, segment_len=2)
        cfg = ROUND_TRIP_CFG.replace(mode="sampled", sample_size=30, seed=6)
        report = score_document(HashBackend(), grid, cfg)
        path, _ = written_and_read(tmp_path, report, cfg)
        cli_out = [str(tmp_path / "cli.ppm"), str(tmp_path / "cli.csv")]
        code = main(
            ["heatmap", "--pairs", path, "--out-image", cli_out[0], "--out-csv", cli_out[1],
             "--value", value, "--scale", scale, "--cell-size", "2"]
        )
        assert code == 0
        spec = HeatmapSpec(report.doc_id, report.n_segments, scale, value, cell_size=2)
        direct = [str(tmp_path / "direct.ppm"), str(tmp_path / "direct.csv")]
        render_heatmap(report.pairs, spec, *direct, report.config_hash)
        for mine, theirs in zip(cli_out, direct):
            assert open(mine, "rb").read() == open(theirs, "rb").read()

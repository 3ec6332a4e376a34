"""Corpus scoring orchestration and selection manifests."""

import collections
import json
import math

import pytest
from support import FailingBackend, HashBackend, make_reports

import numpy as np

from longdep.cli import main
from longdep.corpus import Document, TokenizerSpec
from longdep.errors import BackendUnreachable, ConfigError
from longdep.jsonio import canonical_dumps
from longdep.lds import LdsConfig, ScoreReport
from longdep.pipeline import (
    DocumentOutcome,
    build_manifest,
    reports_only,
    score_corpus,
)

CFG = LdsConfig(segment_len=2, truncate_len=16, mode="exact")


def make_docs(n, tokens_per_doc=10, source="web"):
    docs = []
    for i in range(n):
        toks = tuple(f"w{(i * 7 + j) % 13}" for j in range(tokens_per_doc))
        docs.append(Document(id=f"d{i:03d}", source=source, text="", tokens=toks))
    return docs


CLI_SCORE_FLAGS = [
    "--segment-len", "4", "--truncate-len", "32",
    "--mode", "sampled", "--sample-size", "10",
]


@pytest.fixture()
def corpus_and_model(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as handle:
        for i in range(6):
            text = " ".join(f"w{(i * 5 + j) % 11}" for j in range(24))
            handle.write(json.dumps({"id": f"d{i:03d}", "text": text}) + "\n")
    model = tmp_path / "model.bin"
    assert main(["train-ngram", "--input", str(corpus), "--out", str(model)]) == 0
    return str(corpus), str(model)


def cli_score(corpus_and_model, out_dir, workers):
    corpus, model = corpus_and_model
    return main(
        [
            "score", "--input", corpus, "--backend", f"ngram:{model}",
            "--out-dir", str(out_dir), "--emit-pairs", "--workers", workers,
            *CLI_SCORE_FLAGS,
        ]
    )


class TestScoreCorpus:
    def test_outcomes_in_input_order(self):
        docs = make_docs(9)
        outcomes = list(score_corpus(docs, HashBackend(), CFG))
        assert [o.doc_id for o in outcomes] == [d.id for d in docs]
        assert all(o.status == "scored" for o in outcomes)

    def test_worker_count_does_not_change_results(self, corpus_and_model, tmp_path):
        # --workers is accepted, but documents are scored one at a time.
        outputs = []
        for workers in ("1", "4"):
            out_dir = tmp_path / f"w{workers}"
            assert cli_score(corpus_and_model, out_dir, workers) == 0
            pairs = sorted((out_dir / "pairs").iterdir())
            outputs.append(
                (
                    (out_dir / "reports.jsonl").read_bytes(),
                    [(p.name, p.read_bytes()) for p in pairs],
                )
            )
        assert len(outputs[0][1]) == 6
        assert outputs[0] == outputs[1]

    def test_invalid_worker_count(self, corpus_and_model, tmp_path):
        assert cli_score(corpus_and_model, tmp_path / "o", "0") == 2

    def test_short_documents_are_excluded(self):
        docs = make_docs(3) + [
            Document(id="tiny", source="web", text="", tokens=("x",))
        ]
        outcomes = list(score_corpus(docs, HashBackend(), CFG))
        by_id = {o.doc_id: o for o in outcomes}
        assert by_id["tiny"].status == "excluded"
        assert by_id["tiny"].report is None
        assert by_id["tiny"].reason
        assert collections.Counter(o.status for o in outcomes) == {"scored": 3, "excluded": 1}

    def test_untokenized_text_is_tokenized_in_stream(self):
        docs = [Document(id="t", source="web", text="one two three four")]
        outcomes = list(
            score_corpus(docs, HashBackend(), CFG, tokenizer=TokenizerSpec())
        )
        assert outcomes[0].status == "scored"

    def test_backend_failure_marks_document_failed(self):
        docs = make_docs(4)
        poisoned = Document(
            id="bad", source="web", text="", tokens=("BOOM",) * 10
        )
        outcomes = list(score_corpus(docs + [poisoned], FailingBackend(HashBackend()), CFG))
        by_id = {o.doc_id: o for o in outcomes}
        assert by_id["bad"].status == "failed"
        assert collections.Counter(o.status for o in outcomes) == {"scored": 4, "failed": 1}
        assert len(reports_only(outcomes)) == 4

    def test_outcome_rows_round_trip(self):
        docs = make_docs(2) + [
            Document(id="tiny", source="web", text="", tokens=("x",)),
            Document(id="bad", source="web", text="", tokens=("BOOM",) * 10),
        ]
        outcomes = list(score_corpus(docs, FailingBackend(HashBackend()), CFG))
        assert [o.status for o in outcomes] == ["scored", "scored", "excluded", "failed"]
        for outcome in outcomes:
            row = outcome.to_row()
            assert DocumentOutcome.from_row(row) == outcome
            assert DocumentOutcome.from_row(json.loads(canonical_dumps(row))) == outcome

    def test_unreachable_backend_is_fatal(self):
        class Unreachable:
            capabilities = HashBackend.capabilities

            def score(self, target, context=None):
                raise BackendUnreachable("gone")

        with pytest.raises(BackendUnreachable):
            list(score_corpus(make_docs(2), Unreachable(), CFG))



def report(doc_id, lds, source="web", config_hash="cfg"):
    return ScoreReport(
        doc_id=doc_id,
        n_segments=4,
        mode="exact",
        lds=lds,
        pair_count=6,
        gated_count=3,
        config_hash=config_hash,
        source=source,
    )


class TestBuildManifest:
    def test_retention_count_rounds_up(self):
        reports = [report(f"d{i}", float(i)) for i in range(5)]
        manifest = build_manifest(reports, (), 0.5, "prolong", seed=0)
        assert len(manifest.retained_ids) == math.ceil(5 * 0.5)

    def test_top_scores_retained_with_id_tie_break(self):
        reports = [
            report("b", 2.0),
            report("a", 2.0),
            report("c", 5.0),
            report("d", 1.0),
        ]
        manifest = build_manifest(reports, (), 0.5, "prolong", seed=0)
        assert manifest.retained_ids == ["c", "a"]
        entry = manifest.sources[0]
        assert [d.doc_id for d in entry.documents] == ["c", "a", "b", "d"]
        assert [d.rank for d in entry.documents] == [0, 1, 2, 3]

    def test_full_strategy_keeps_everything(self):
        reports = [report(f"d{i}", float(i)) for i in range(4)]
        manifest = build_manifest(reports, (), 0.25, "full", seed=0)
        assert len(manifest.retained_ids) == 4
        assert manifest.sources[0].retention_fraction == 1.0

    def test_passthrough_source_is_never_filtered(self):
        reports = [report(f"w{i}", float(i), source="web") for i in range(4)]
        reports += [report(f"k{i}", float(i), source="keep") for i in range(4)]
        manifest = build_manifest(
            reports,
            (),
            0.25,
            "prolong",
            seed=0,
            passthrough_sources=frozenset({"keep"}),
        )
        retained = set(manifest.retained_ids)
        assert {f"k{i}" for i in range(4)} <= retained
        assert len([d for d in retained if d.startswith("w")]) == 1

    def test_random_strategy_is_seeded(self):
        reports = [report(f"d{i}", float(i)) for i in range(10)]
        one = build_manifest(reports, (), 0.3, "random", seed=7)
        two = build_manifest(reports, (), 0.3, "random", seed=7)
        other = build_manifest(reports, (), 0.3, "random", seed=8)
        assert one.retained_ids == two.retained_ids
        assert one.retained_ids != other.retained_ids

    def test_per_source_vs_global_pooling(self):
        reports = [report(f"w{i}", 10.0 + i, source="web") for i in range(4)]
        reports += [report(f"b{i}", float(i), source="book") for i in range(4)]
        split = build_manifest(reports, (), 0.5, "prolong", seed=0, per_source=True)
        pooled = build_manifest(reports, (), 0.5, "prolong", seed=0, per_source=False)
        split_retained = set(split.retained_ids)
        assert len([d for d in split_retained if d.startswith("b")]) == 2
        # Pooled ranking lets the stronger source crowd the weaker one out.
        assert set(pooled.retained_ids) == {"w0", "w1", "w2", "w3"}
        assert len(pooled.sources) == 1
        assert pooled.sources[0].source == "all"

    def test_stats_describe_the_three_arms(self):
        reports = [report(f"d{i}", float(i)) for i in range(6)]
        manifest = build_manifest(reports, (), 0.5, "prolong", seed=0)
        stats = manifest.stats
        assert stats["full"]["count"] == 6
        assert stats["full"]["mean"] == pytest.approx(2.5)
        assert stats["prolong"]["count"] == 3
        assert stats["prolong"]["mean"] == pytest.approx((5 + 4 + 3) / 3)
        assert stats["random"]["count"] == 3

    def test_excluded_and_failed_are_carried(self):
        reports = [report("d0", 1.0), report("d1", 2.0)]
        outcomes = [
            DocumentOutcome("d0", "web", "scored", report=reports[0]),
            DocumentOutcome("d1", "web", "scored", report=reports[1]),
            DocumentOutcome("shorty", "web", "excluded", reason="too short"),
            DocumentOutcome("crash", "web", "failed", reason="backend"),
        ]
        manifest = build_manifest(reports, outcomes, 0.5, "prolong", seed=0)
        assert [row["doc_id"] for row in manifest.excluded] == ["shorty"]
        assert [row["doc_id"] for row in manifest.failed] == ["crash"]
        assert manifest.excluded[0]["reason"] == "too short"

    def test_validation_errors(self):
        reports = [report("d0", 1.0)]
        with pytest.raises(ConfigError):
            build_manifest([], (), 0.5, "prolong")
        with pytest.raises(ConfigError):
            build_manifest(reports, (), 0.0, "prolong")
        with pytest.raises(ConfigError):
            build_manifest(reports, (), 1.5, "prolong")
        with pytest.raises(ConfigError):
            build_manifest(reports, (), 0.5, "best")

    def test_mixed_config_hashes_rejected(self):
        reports = [report("d0", 1.0, config_hash="one"), report("d1", 2.0, config_hash="two")]
        with pytest.raises(ConfigError):
            build_manifest(reports, (), 0.5, "prolong")

    def test_manifest_serialization_is_byte_stable(self):
        rng = np.random.default_rng(0)
        reports = make_reports(rng, 15)
        one = build_manifest(reports, (), 0.4, "prolong", seed=5)
        two = build_manifest(list(reversed(reports)), (), 0.4, "prolong", seed=5)
        assert canonical_dumps(one.to_dict()) == canonical_dumps(two.to_dict())

    def test_run_id_tracks_inputs(self):
        reports = [report(f"d{i}", float(i)) for i in range(4)]
        base = build_manifest(reports, (), 0.5, "prolong", seed=0)
        assert base.run_id == build_manifest(reports, (), 0.5, "prolong", seed=0).run_id
        assert base.run_id != build_manifest(reports, (), 0.5, "prolong", seed=1).run_id
        assert base.run_id != build_manifest(reports, (), 0.25, "prolong", seed=0).run_id

    def test_to_dict_shape(self):
        reports = [report(f"d{i}", float(i)) for i in range(3)]
        payload = build_manifest(reports, (), 0.5, "prolong", seed=0).to_dict()
        assert set(payload) == {
            "run_id",
            "strategy",
            "fraction",
            "seed",
            "per_source",
            "config_hash",
            "sources",
            "excluded",
            "failed",
            "stats",
        }
        entry = payload["sources"][0]
        assert set(entry) == {"source", "retention_fraction", "documents", "stats"}
        doc = entry["documents"][0]
        assert set(doc) == {"doc_id", "lds", "rank", "retained"}


class TestSelectionHelpers:
    def test_rank_and_select_is_prolong(self):
        reports = [report(f"d{i}", float(i)) for i in range(6)]
        a = build_manifest(reports, (), 0.5, "prolong", seed=3)
        assert a.retained_ids == ["d5", "d4", "d3"]
        assert a.strategy == "prolong"

    def test_random_baseline_matches_subset_size(self):
        reports = [report(f"d{i}", float(i)) for i in range(9)]
        manifest = build_manifest(reports, (), 0.4, "random", seed=2)
        assert manifest.strategy == "random"
        assert len(manifest.retained_ids) == math.ceil(9 * 0.4)

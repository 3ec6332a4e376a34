"""Synthetic labeled corpus, oracle calibration, and the bench harness."""

import shlex
import sys
from pathlib import Path

import pytest
from support import process_alive

from longdep.backends import ExternalBackend
from longdep.bench import (
    NEGATIVE_KINDS,
    POSITIVE_KINDS,
    OracleBackend,
    SynthSpec,
    accuracy_at_k,
    bench_csv,
    bench_table,
    generate_testset,
    repeated_token_document,
    run_bench,
)
from longdep.errors import BackendError, ConfigError
from longdep.lds import LdsConfig, ScoreReport
from longdep.ngram import NGramBackend, train_ngram
from longdep.pipeline import reports_only, score_corpus

TINY = SynthSpec(n_positive=6, n_negative=6, n_segments=16, segment_len=8, seed=0)


@pytest.fixture(scope="module")
def tiny_testset():
    return generate_testset(TINY)


class TestSynthSpec:
    def test_doc_token_len(self):
        assert TINY.doc_token_len == 16 * 8

    @pytest.mark.parametrize(
        "changes",
        [
            {"n_positive": 0},
            {"n_negative": 0},
            {"n_segments": 4},
            {"segment_len": 4},
        ],
    )
    def test_validation(self, changes):
        with pytest.raises(ConfigError):
            SynthSpec(**changes)


class TestGenerateTestset:
    def test_counts_and_ids(self, tiny_testset):
        assert len(tiny_testset.docs) == 12
        assert tiny_testset.n_positive == 6
        assert sum(tiny_testset.labels.values()) == 6
        assert set(tiny_testset.labels) == {d.id for d in tiny_testset.docs}
        assert [d.id for d in tiny_testset.docs[:2]] == ["pos-0000", "pos-0001"]
        assert tiny_testset.docs[6].id == "neg-0000"

    def test_every_document_has_exact_length(self, tiny_testset):
        for doc in tiny_testset.docs:
            assert len(doc.tokens) == TINY.doc_token_len

    def test_regeneration_is_identical(self, tiny_testset):
        again = generate_testset(TINY)
        assert [d.tokens for d in again.docs] == [d.tokens for d in tiny_testset.docs]
        assert again.labels == tiny_testset.labels
        assert again.links == tiny_testset.links

    def test_kinds_cycle_over_arms(self, tiny_testset):
        pos_sources = [d.source for d in tiny_testset.docs if d.id.startswith("pos")]
        neg_sources = [d.source for d in tiny_testset.docs if d.id.startswith("neg")]
        assert pos_sources == list(POSITIVE_KINDS) * 3
        assert neg_sources == list(NEGATIVE_KINDS) * 3

    def test_single_kind_restriction(self):
        ts = generate_testset(TINY, positive_kinds=("entity-chain",))
        pos_sources = {d.source for d in ts.docs if d.id.startswith("pos")}
        assert pos_sources == {"entity-chain"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_testset(TINY, positive_kinds=("planted-key", "surprise"))

    @pytest.mark.parametrize(
        "kinds",
        [
            {"positive_kinds": ("concat-shorts",)},
            {"positive_kinds": ("planted-key", "local-markov")},
            {"negative_kinds": ("entity-chain",)},
            {"negative_kinds": ()},
        ],
    )
    def test_kind_outside_its_arm_rejected(self, kinds):
        with pytest.raises(ValueError, match="arm kinds must be drawn from"):
            generate_testset(TINY, **kinds)

    def test_links_registered_for_positives(self, tiny_testset):
        assert tiny_testset.links
        for (bigram, head) in tiny_testset.links:
            assert len(bigram) == 2
            assert isinstance(head, str)


class TestOracleBackend:
    links = frozenset({(("x", "y"), "z")})

    def test_boost_on_registered_link(self):
        oracle = OracleBackend(self.links)
        assert oracle.score(("z", "q"), ("a", "x", "y")) == (-1.0, 2)

    def test_base_rate_otherwise(self):
        oracle = OracleBackend(self.links)
        assert oracle.score(("z",), ("y", "x")) == (-2.0, 1)
        assert oracle.score(("w",), ("x", "y")) == (-2.0, 1)
        assert oracle.score(("z",)) == (-2.0, 1)
        assert oracle.score(("z",), ("y",)) == (-2.0, 1)

    def test_perfectly_separates_the_testset(self, tiny_testset):
        cfg = LdsConfig(segment_len=8, truncate_len=TINY.doc_token_len, mode="exact")
        reports = reports_only(
            score_corpus(tiny_testset.docs, OracleBackend(tiny_testset.links), cfg)
        )
        assert accuracy_at_k(reports, tiny_testset.labels) == 1.0


def fake_report(doc_id, lds):
    return ScoreReport(
        doc_id=doc_id,
        n_segments=4,
        mode="exact",
        lds=lds,
        pair_count=6,
        gated_count=2,
        config_hash="c",
    )


class TestAccuracyAtK:
    def test_hand_case(self):
        reports = [
            fake_report("p1", 3.0),
            fake_report("n1", 2.0),
            fake_report("p2", 1.0),
            fake_report("n2", 0.0),
        ]
        labels = {"p1": 1, "p2": 1, "n1": 0, "n2": 0}
        assert accuracy_at_k(reports, labels) == 0.5
        assert accuracy_at_k(reports, labels, k=1) == 1.0
        assert accuracy_at_k(reports, labels, k=3) == pytest.approx(2 / 3)

    def test_ties_break_on_id(self):
        reports = [fake_report("b-pos", 1.0), fake_report("a-neg", 1.0)]
        labels = {"b-pos": 1, "a-neg": 0}
        assert accuracy_at_k(reports, labels, k=1) == 0.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            accuracy_at_k([fake_report("d", 1.0)], {"d": 1}, k=0)


class TestRepeatedTokenDocument:
    def test_shape(self):
        doc = repeated_token_document("rep", 64)
        assert doc.id == "rep"
        assert doc.source == "repeated"
        assert doc.tokens == ("r",) * 64


class TestRunBench:
    def test_grid_of_cells(self, tiny_testset):
        docs = tiny_testset.docs

        def ngram_factory():
            return NGramBackend(train_ngram(docs, order=3, k=0.01))

        def oracle_factory():
            return OracleBackend(tiny_testset.links)

        results = run_bench(
            tiny_testset,
            [("ngram", ngram_factory), ("oracle", oracle_factory)],
            sample_sizes=(5, 20),
        )
        assert [(r.backend, r.sample_size) for r in results] == [
            ("ngram", 5),
            ("ngram", 20),
            ("oracle", 5),
            ("oracle", 20),
        ]
        for r in results:
            assert r.status == "ok"
            assert r.n_docs == 12
            assert r.docs_per_second > 0
            assert 0.0 <= r.accuracy_at_k <= 1.0

    def test_failed_cell_is_recorded_and_run_continues(self, tiny_testset):
        def broken_factory():
            raise BackendError("no model file")

        def oracle_factory():
            return OracleBackend(tiny_testset.links)

        results = run_bench(
            tiny_testset,
            [("broken", broken_factory), ("oracle", oracle_factory)],
            sample_sizes=(5,),
        )
        assert results[0].status == "failed"
        assert results[0].accuracy_at_k is None
        assert "no model file" in results[0].error
        assert results[1].status == "ok"

    def test_each_cell_closes_its_scorer(self, tiny_testset, tmp_path):
        # Each cell's scorer appends its pid; the factory keeps every
        # backend alive, so only a close can end the processes.
        pids = tmp_path / "pids"
        script = Path(__file__).parent / "scripted_scorer.py"
        endpoint = f"stdio://echo $$ >> {shlex.quote(str(pids))}; exec " + shlex.join(
            [sys.executable, str(script)]
        )
        built = []

        def external_factory():
            built.append(ExternalBackend(endpoint))
            return built[-1]

        results = run_bench(tiny_testset, [("external", external_factory)], (3, 6))
        assert [r.status for r in results] == ["ok", "ok"]
        started = [int(pid) for pid in pids.read_text().split()]
        assert len(started) == 2
        assert not any(process_alive(pid, wait_s=1.0) for pid in started)

    def test_output_formats(self, tiny_testset):
        def oracle_factory():
            return OracleBackend(tiny_testset.links)

        results = run_bench(tiny_testset, [("oracle", oracle_factory)], (5,))
        csv = bench_csv(results)
        lines = csv.strip().splitlines()
        assert lines[0] == "T,backend,docs_per_s,accuracy_at_k,status"
        assert len(lines) == 2
        assert lines[1].startswith("5,oracle,")
        table = bench_table(results)
        assert "oracle" in table
        assert table.count("\n") >= 3

"""Corpus scoring orchestration and selection manifests."""

import collections
import hashlib
import json
import math

import pytest
from support import FailingBackend, HashBackend, make_reports

import numpy as np

from longdep.cli import main
from longdep.corpus import Document, segment, tokenize
from longdep.errors import BackendUnreachable, ConfigError
from longdep.jsonio import canonical_dumps
from longdep.lds import (
    LdsConfig,
    ScoreReport,
    derive_seed,
    pair_count,
    sample_pairs,
    score_document,
)
from longdep.pipeline import (
    DocumentOutcome,
    build_manifest,
    reports_only,
    retained_ids,
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


def letters(n):
    return "".join("abcdefghijklm"[j % 13] for j in range(n))


# A text of n tokens for each tokenizer path, and the tokenizer kind.
TEXT_OF_N_TOKENS = {
    "whitespace": (lambda n: " ".join(f"w{j % 13}" for j in range(n)), "whitespace"),
    "byte": (letters, "byte"),
    "byte fallback": (lambda n: f"  {letters(n)}\n", "whitespace"),
}


@pytest.mark.parametrize("path", sorted(TEXT_OF_N_TOKENS))
def test_a_long_document_is_tokenized_only_to_truncate_len(path, monkeypatch):
    # A document of 10 x truncate_len tokens scores the same row as its
    # first truncate_len tokens, and no more than those are made.
    made = []

    def counting_tokenize(*args):
        doc = tokenize(*args)
        made.append(len(doc.tokens))
        return doc

    monkeypatch.setattr("longdep.pipeline.tokenize", counting_tokenize)
    cfg = LdsConfig(segment_len=4, truncate_len=32, mode="sampled", sample_size=20)
    text_of, tokenizer = TEXT_OF_N_TOKENS[path]
    rows = []
    for n in (10 * cfg.truncate_len, cfg.truncate_len):
        doc = Document(id="long", source="web", text=text_of(n))
        (outcome,) = score_corpus([doc], HashBackend(), cfg, tokenizer=tokenizer)
        rows.append(outcome.to_row())
    assert rows[0] == rows[1]
    assert rows[0]["status"] == "scored"
    assert made == [cfg.truncate_len, cfg.truncate_len]


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
        outcomes = list(score_corpus(docs, HashBackend(), CFG, tokenizer="whitespace"))
        assert outcomes[0].status == "scored"

    def test_byte_tokenizer_kind_is_used(self):
        doc = Document(id="t", source="web", text="ab cd")
        [outcome] = score_corpus([doc], HashBackend(), CFG, tokenizer="byte", keep_pairs=True)
        grid = segment(tokenize(doc, "byte"), CFG.segment_len, CFG.truncate_len)
        assert grid.segments == ((97, 98), (32, 99))
        assert outcome.report == score_document(HashBackend(), grid, CFG)

    def test_document_without_tokens_is_excluded_and_the_run_goes_on(self):
        docs = [
            Document(id="blank", source="web", text=" \t\n "),
            Document(id="empty", source="web", text="", tokens=()),
            *make_docs(2),
        ]
        outcomes = list(score_corpus(docs, HashBackend(), CFG))
        assert [o.status for o in outcomes] == ["excluded", "excluded", "scored", "scored"]
        for outcome in outcomes[:2]:
            assert outcome.reason == (
                f"document {outcome.doc_id!r} has 0 tokens, needs at least 4 for two segments of 2"
            )

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

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_unscorable_segment_that_no_pair_targets_is_never_scored(self, mode):
        # Segment 0 is never a target, so only pairs that read it as a
        # context touch it, and the document scores as if it were clean.
        doc = Document(id="first", source="web", text="",
                       tokens=("BOOM", "w1") + tuple(f"w{j % 13}" for j in range(2, 10)))
        cfg = CFG.replace(mode=mode, sample_size=6)
        [outcome] = score_corpus([doc], FailingBackend(HashBackend()), cfg)
        assert outcome.status == "scored"
        grid = segment(doc, cfg.segment_len, cfg.truncate_len)
        assert outcome.report == score_document(HashBackend(), grid, cfg, keep_pairs=False)
        last = Document(id="last", source="web", text="", tokens=doc.tokens[2:] + doc.tokens[:2])
        [outcome] = score_corpus([last], FailingBackend(HashBackend()), CFG)
        assert outcome.status == "failed"

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
            def score(self, target, context=None):
                raise BackendUnreachable("gone")

        with pytest.raises(BackendUnreachable):
            list(score_corpus(make_docs(2), Unreachable(), CFG))

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_one_document_scores_as_in_a_corpus(self, mode):
        doc = Document(id="doc-7", source="web", text=" ".join(f"w{j * 5 % 13}" for j in range(24)))
        cfg = LdsConfig(segment_len=2, truncate_len=24, mode=mode, sample_size=10, seed=3)
        grid = segment(tokenize(doc), cfg.segment_len, cfg.truncate_len)
        alone = score_document(HashBackend(), grid, cfg)
        [outcome] = score_corpus([doc], HashBackend(), cfg, keep_pairs=True)
        assert outcome.report == alone
        assert outcome.report.pairs == alone.pairs
        scored = tuple((p.target, p.source) for p in alone.pairs)
        if mode == "sampled":
            assert len(scored) == 10 < pair_count(grid.n_segments)
            targets, sources = sample_pairs(grid.n_segments, 10, derive_seed(3, doc.id))
            assert scored == tuple(zip(targets.tolist(), sources.tolist()))
        else:
            assert len(scored) == pair_count(grid.n_segments) == 66


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
        assert len(retained_ids(manifest)) == math.ceil(5 * 0.5)

    @pytest.mark.parametrize("fraction,count,kept", [(0.07, 100, 7), (0.14, 50, 7),
                                                     (0.56, 25, 14), (0.55, 200, 110)])
    def test_retention_count_is_the_decimal_fraction_rounded_up(self, fraction, count, kept):
        # The float products (7.000000000000001, ...) lie just above the count.
        assert fraction * count > kept
        reports = [report(f"d{i}", float(i)) for i in range(count)]
        manifest = build_manifest(reports, (), fraction, "prolong", seed=0)
        assert len(retained_ids(manifest)) == kept

    def test_top_scores_retained_with_id_tie_break(self):
        reports = [
            report("b", 2.0),
            report("a", 2.0),
            report("c", 5.0),
            report("d", 1.0),
        ]
        manifest = build_manifest(reports, (), 0.5, "prolong", seed=0)
        assert retained_ids(manifest) == ["c", "a"]
        entry = manifest["sources"][0]
        assert [d["doc_id"] for d in entry["documents"]] == ["c", "a", "b", "d"]
        assert [d["rank"] for d in entry["documents"]] == [0, 1, 2, 3]

    def test_full_strategy_keeps_everything(self):
        reports = [report(f"d{i}", float(i)) for i in range(4)]
        manifest = build_manifest(reports, (), 0.25, "full", seed=0)
        assert len(retained_ids(manifest)) == 4
        assert manifest["sources"][0]["retention_fraction"] == 1.0

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
        retained = set(retained_ids(manifest))
        assert {f"k{i}" for i in range(4)} <= retained
        assert len([d for d in retained if d.startswith("w")]) == 1

    def test_random_strategy_is_seeded(self):
        reports = [report(f"d{i}", float(i)) for i in range(10)]
        one = build_manifest(reports, (), 0.3, "random", seed=7)
        two = build_manifest(reports, (), 0.3, "random", seed=7)
        other = build_manifest(reports, (), 0.3, "random", seed=8)
        assert retained_ids(one) == retained_ids(two)
        assert retained_ids(one) != retained_ids(other)

    def test_per_source_vs_global_pooling(self):
        reports = [report(f"w{i}", 10.0 + i, source="web") for i in range(4)]
        reports += [report(f"b{i}", float(i), source="book") for i in range(4)]
        split = build_manifest(reports, (), 0.5, "prolong", seed=0, per_source=True)
        pooled = build_manifest(reports, (), 0.5, "prolong", seed=0, per_source=False)
        split_retained = set(retained_ids(split))
        assert len([d for d in split_retained if d.startswith("b")]) == 2
        # Pooled ranking lets the stronger source crowd the weaker one out.
        assert set(retained_ids(pooled)) == {"w0", "w1", "w2", "w3"}
        assert len(pooled["sources"]) == 1
        assert pooled["sources"][0]["source"] == "all"

    def test_stats_describe_the_three_arms(self):
        reports = [report(f"d{i}", float(i)) for i in range(6)]
        manifest = build_manifest(reports, (), 0.5, "prolong", seed=0)
        stats = manifest["stats"]
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
        assert [row["doc_id"] for row in manifest["excluded"]] == ["shorty"]
        assert [row["doc_id"] for row in manifest["failed"]] == ["crash"]
        assert manifest["excluded"][0]["reason"] == "too short"

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

    @pytest.mark.parametrize(
        "extra_reports,outcomes,repeated",
        [
            ([report("d0", 3.0)], [], "d0"),
            ([], [DocumentOutcome("d1", "web", "failed", reason="backend")], "d1"),
            ([], [DocumentOutcome("x", "web", "excluded", reason="too short"),
                  DocumentOutcome("x", "web", "failed", reason="backend")], "x"),
        ],
        ids=["scored twice", "scored and failed", "excluded and failed"],
    )
    def test_a_document_on_two_rows_is_refused(self, extra_reports, outcomes, repeated):
        reports = [report("d0", 1.0), report("d1", 2.0), *extra_reports]
        with pytest.raises(ConfigError, match=f"'{repeated}' is listed on more than one row"):
            build_manifest(reports, outcomes, 0.5, "prolong")

    def test_mixed_config_hashes_rejected(self):
        reports = [report("d0", 1.0, config_hash="one"), report("d1", 2.0, config_hash="two")]
        with pytest.raises(ConfigError):
            build_manifest(reports, (), 0.5, "prolong")

    def test_manifest_serialization_is_byte_stable(self):
        rng = np.random.default_rng(0)
        reports = make_reports(rng, 15)
        one = build_manifest(reports, (), 0.4, "prolong", seed=5)
        two = build_manifest(list(reversed(reports)), (), 0.4, "prolong", seed=5)
        assert canonical_dumps(one) == canonical_dumps(two)

    def test_run_id_tracks_inputs(self):
        reports = [report(f"d{i}", float(i)) for i in range(4)]
        base = build_manifest(reports, (), 0.5, "prolong", seed=0)
        assert base["run_id"] == build_manifest(reports, (), 0.5, "prolong", seed=0)["run_id"]
        assert base["run_id"] != build_manifest(reports, (), 0.5, "prolong", seed=1)["run_id"]
        assert base["run_id"] != build_manifest(reports, (), 0.25, "prolong", seed=0)["run_id"]

    def test_manifest_shape(self):
        reports = [report(f"d{i}", float(i)) for i in range(3)]
        payload = build_manifest(reports, (), 0.5, "prolong", seed=0)
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
        assert retained_ids(a) == ["d5", "d4", "d3"]
        assert a["strategy"] == "prolong"

    def test_random_baseline_matches_subset_size(self):
        reports = [report(f"d{i}", float(i)) for i in range(9)]
        manifest = build_manifest(reports, (), 0.4, "random", seed=2)
        assert manifest["strategy"] == "random"
        assert len(retained_ids(manifest)) == math.ceil(9 * 0.4)


# -- pinned manifest bytes ---------------------------------------------------

PIN_REPORTS = [report(f"w{i}", (i * 7 % 5) / 3, source="web") for i in range(7)] + [
    report(f"b{i}", i / 9, source="book") for i in range(5)
]
PIN_OUTCOMES = [
    DocumentOutcome("short", "web", "excluded", reason="too short"),
    *(DocumentOutcome(r.doc_id, r.source, "scored", report=r) for r in PIN_REPORTS[:6]),
    DocumentOutcome("crash", "book", "failed", reason="backend error"),
    *(DocumentOutcome(r.doc_id, r.source, "scored", report=r) for r in PIN_REPORTS[6:]),
    DocumentOutcome("tiny", "book", "excluded", reason="too short"),
]

# sha256 of the canonical manifest JSON, recorded before the manifest
# became a plain dict; (strategy, per_source, passthrough "book").
MANIFEST_SHA256 = {
    ("full", False, False): "da9672c971b187beb115c8014d1deb9456ae275d9db5b546f9250417394259d4",
    ("full", False, True): "da9672c971b187beb115c8014d1deb9456ae275d9db5b546f9250417394259d4",
    ("full", True, False): "97a3821be8cda44872450910583b56de1ca2e021b5069fa74a97a5bf53dc2f1d",
    ("full", True, True): "97a3821be8cda44872450910583b56de1ca2e021b5069fa74a97a5bf53dc2f1d",
    ("prolong", False, False): "6878006923173783e340925f4e39736f7cb54b2fac2617e9d4a87180e9429152",
    ("prolong", False, True): "6878006923173783e340925f4e39736f7cb54b2fac2617e9d4a87180e9429152",
    ("prolong", True, False): "3de49ff506b53d42a55fe68247bf9a5a3ba6f4fbb3580a128e851580d58d93bf",
    ("prolong", True, True): "ea13607ec27a5337ce6e9d2787e63fc9bf7b59c10c406bc5dc70c52141a0a095",
    ("random", False, False): "5c19c809dfa6f19d7328074f76b970beb99a998ebbae0eec37586d65a80b2396",
    ("random", False, True): "5c19c809dfa6f19d7328074f76b970beb99a998ebbae0eec37586d65a80b2396",
    ("random", True, False): "e75c0e6a050e6d0c00aea57d919135f861d49fca302725f7fd00b6972735f77f",
    ("random", True, True): "e9916406a034235d897b8e4e2b7e55035d7c50f7f5389131884d634fa1f23559",
}


@pytest.mark.parametrize("strategy,per_source,passthrough", sorted(MANIFEST_SHA256))
def test_manifest_bytes_are_pinned(strategy, per_source, passthrough):
    manifest = build_manifest(
        PIN_REPORTS,
        PIN_OUTCOMES,
        0.4,
        strategy,
        seed=3,
        per_source=per_source,
        passthrough_sources=frozenset({"book"} if passthrough else ()),
    )
    digest = hashlib.sha256(canonical_dumps(manifest).encode("utf-8")).hexdigest()
    assert digest == MANIFEST_SHA256[strategy, per_source, passthrough]

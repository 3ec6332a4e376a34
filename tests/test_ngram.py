"""Add-k n-gram model: probabilities, serialization, and its backend."""

import json
import math

import pytest

from longdep.corpus import Document
from longdep.errors import ConfigError
from longdep.ngram import UNCOND_MEMO_SIZE, UNK, NGramBackend, NGramModel, train_ngram


@pytest.fixture()
def bigram():
    """Order-2, k=0.5 model over the single document a b a c.

    Small enough that every probability is checkable by hand: vocab is
    {a, b, c} so each denominator adds k * 4 unknown-inclusive mass.
    """
    return train_ngram([["a", "b", "a", "c"]], order=2, k=0.5)


class TestProbabilities:
    def test_unigram_counts(self, bigram):
        assert bigram.prob("a") == pytest.approx(2.5 / 6, rel=1e-12)
        assert bigram.prob("b") == pytest.approx(1.5 / 6, rel=1e-12)
        assert bigram.prob("c") == pytest.approx(1.5 / 6, rel=1e-12)

    def test_bigram_counts(self, bigram):
        assert bigram.prob("b", ("a",)) == pytest.approx(1.5 / 4, rel=1e-12)
        assert bigram.prob("c", ("a",)) == pytest.approx(1.5 / 4, rel=1e-12)
        assert bigram.prob("a", ("a",)) == pytest.approx(0.5 / 4, rel=1e-12)
        assert bigram.prob("a", ("b",)) == pytest.approx(1.5 / 3, rel=1e-12)

    def test_unseen_history_is_uniform(self, bigram):
        for tok in ("a", "b", "c", "zz"):
            assert bigram.prob(tok, ("c",)) == pytest.approx(0.25, rel=1e-12)

    def test_out_of_vocab_token_uses_unknown_mass(self, bigram):
        assert bigram.prob("zz") == bigram.prob(UNK)
        assert bigram.prob("zz") == pytest.approx(0.5 / 6, rel=1e-12)

    def test_out_of_vocab_history_maps_to_unknown(self, bigram):
        assert bigram.prob("a", ("zz",)) == bigram.prob("a", (UNK,))

    def test_history_longer_than_window_is_cut(self, bigram):
        assert bigram.prob("a", ("c", "c", "b")) == bigram.prob("a", ("b",))

    def test_conditionals_sum_to_one(self, bigram):
        for history in ((), ("a",), ("b",), ("c",), ("zz",)):
            total = sum(bigram.prob(t, history) for t in ("a", "b", "c", UNK))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestSeqLogprob:
    def test_hand_expansion(self, bigram):
        total, n = bigram.seq_logprob(("a", "b"))
        assert n == 2
        assert total == pytest.approx(math.log(2.5 / 6) + math.log(1.5 / 4), rel=1e-12)

    def test_context_extends_history_only(self, bigram):
        total, n = bigram.seq_logprob(("a",), context=("b",))
        assert n == 1
        assert total == pytest.approx(math.log(1.5 / 3), rel=1e-12)

    def test_empty_target_rejected(self, bigram):
        with pytest.raises(ValueError):
            bigram.seq_logprob(())

    def test_only_window_tail_of_context_matters(self):
        model = train_ngram([[f"t{i % 7}" for i in range(60)]], order=3, k=0.1)
        short = model.seq_logprob(("t1", "t2"), context=("t5", "t6"))
        long = model.seq_logprob(("t1", "t2"), context=("t0", "t3", "t5", "t6"))
        assert short == long


class TestTraining:
    def test_documents_and_raw_sequences_agree(self):
        raw = train_ngram([["x", "y", "x"]], order=2, k=0.1)
        docs = train_ngram(
            [Document(id="d", source="s", text="", tokens=("x", "y", "x"))],
            order=2,
            k=0.1,
        )
        assert raw.to_payload() == docs.to_payload()

    def test_counts_aggregate_across_documents(self):
        one = train_ngram([["x", "y"], ["y", "x"]], order=2, k=0.1)
        assert one.prob("y", ("x",)) == pytest.approx(1.1 / (1 + 0.1 * 3), rel=1e-12)

    def test_retraining_is_deterministic(self):
        corpus = [["a", "b", "c", "a"], ["b", "c"]]
        first = train_ngram(corpus, order=3, k=0.01)
        second = train_ngram(corpus, order=3, k=0.01)
        assert json.dumps(first.to_payload(), sort_keys=True) == json.dumps(
            second.to_payload(), sort_keys=True
        )

    def test_untokenized_document_rejected(self):
        doc = Document(id="d", source="s", text="a b")
        with pytest.raises(ValueError):
            train_ngram([doc])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            train_ngram([])
        with pytest.raises(ConfigError):
            train_ngram([[]])

    def test_order_bounds(self):
        with pytest.raises(ConfigError):
            NGramModel(order=0, k=0.1)
        with pytest.raises(ConfigError):
            NGramModel(order=6, k=0.1)

    def test_k_must_be_positive_finite(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                NGramModel(order=2, k=bad)


class TestSerialization:
    def test_save_is_byte_stable(self, bigram, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        bigram.save(a)
        NGramModel.load(a).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_model_scores_bit_identically(self, bigram, tmp_path):
        path = tmp_path / "model.json"
        bigram.save(path)
        loaded = NGramModel.load(path)
        probes = [
            (("a", "b", "zz"), ()),
            (("c",), ("a", "b")),
            (("b", "b"), ("zz",)),
        ]
        for target, context in probes:
            assert loaded.seq_logprob(target, context) == bigram.seq_logprob(
                target, context
            )

    def test_wrong_format_rejected(self, bigram):
        payload = bigram.to_payload()
        payload["format"] = "other"
        with pytest.raises(ConfigError):
            NGramModel.from_payload(payload)

    def test_wrong_version_rejected(self, bigram):
        payload = bigram.to_payload()
        payload["version"] = 99
        with pytest.raises(ConfigError):
            NGramModel.from_payload(payload)

    def test_payload_round_trip_preserves_counts(self, bigram):
        clone = NGramModel.from_payload(bigram.to_payload())
        assert clone.counts == bigram.counts
        assert clone.totals == bigram.totals
        assert clone.vocab == bigram.vocab


class TestBackend:
    def test_matches_model_directly(self, bigram):
        backend = NGramBackend(bigram)
        assert backend.score(("a", "b")) == bigram.seq_logprob(("a", "b"))
        assert backend.score(("a", "b"), ("c",)) == bigram.seq_logprob(
            ("a", "b"), ("c",)
        )

    def test_empty_context_is_unconditional(self, bigram):
        backend = NGramBackend(bigram)
        assert backend.score(("a", "c")) == backend.score(("a", "c"), ())

    def test_memoized_calls_stay_bit_identical(self, bigram):
        backend = NGramBackend(bigram)
        first = backend.score(("a", "b", "c"), ("b", "a"))
        assert backend.score(("a", "b", "c"), ("b", "a")) == first
        assert backend.score(("a", "b", "c")) == backend.score(("a", "b", "c"))

    def test_memo_stays_bounded_and_bit_identical(self, bigram):
        backend = NGramBackend(bigram)
        targets = [(f"w{i}", "a") for i in range(UNCOND_MEMO_SIZE + 10)]
        first = [backend.score(t, ("b",)) for t in targets]
        assert len(backend._uncond) <= UNCOND_MEMO_SIZE
        assert [backend.score(t, ("b",)) for t in targets] == first

    def test_empty_target_rejected(self, bigram):
        backend = NGramBackend(bigram)
        with pytest.raises(ValueError):
            backend.score(())

    def test_separator_token_is_inserted(self, bigram):
        plain = NGramBackend(bigram)
        sep = NGramBackend(bigram, context_separator="a")
        got = sep.score(("b",), ("c",))
        want = plain.score(("b",), ("c", "a"))
        assert got == want

    def test_capabilities_report_determinism(self, bigram):
        caps = NGramBackend(bigram).capabilities
        assert caps.deterministic
        assert caps.max_context_tokens >= 1 << 20

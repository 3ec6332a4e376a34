"""Add-k n-gram model: probabilities, serialization, and its backend."""

import hashlib
import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from support import CountingBackend

from longdep.corpus import Document, SegmentGrid
from longdep.errors import ConfigError, ScoringError
from longdep.lds import LdsConfig, derive_seed, score_document
from longdep.ngram import UNK, NGramBackend, NGramModel, train_ngram
from longdep.pipeline import score_corpus


class LoopNGram:
    """The dict-of-tuples counter the array-backed model replaced, kept
    as the reference: the same counts and the same float operations, so
    every score must agree bit for bit."""

    def __init__(self, corpus, order, k):
        self.order, self.k = order, k
        self.vocab, self.counts, self.totals = set(), {}, {}
        for toks in map(tuple, corpus):
            self.vocab.update(toks)
            for hist_len in range(order):
                for i in range(len(toks) - hist_len):
                    hist, tok = toks[i:i + hist_len], toks[i + hist_len]
                    slot = self.counts.setdefault(hist, {})
                    slot[tok] = slot.get(tok, 0) + 1
                    self.totals[hist] = self.totals.get(hist, 0) + 1

    def prob(self, token, history=()):
        hist = tuple(history)[-(self.order - 1):] if self.order > 1 else ()
        hist = tuple(t if t in self.vocab else UNK for t in hist)
        count = self.counts.get(hist, {}).get(token if token in self.vocab else UNK, 0)
        total = self.totals.get(hist, 0)
        return (count + self.k) / (total + self.k * (len(self.vocab) + 1))

    def logprobs(self, buf, start):
        n = self.order - 1
        return [math.log(self.prob(buf[i], buf[max(0, i - n):i])) for i in range(start, len(buf))]

    def seq_logprob(self, target, context=()):
        total = 0.0
        for lp in self.logprobs(tuple(context) + tuple(target), len(context)):
            total += lp
        return total, len(target)

    def backend_score(self, target, context=None):
        """The backend's sum: unconditional, with its head terms swapped."""
        base, n_tokens = self.seq_logprob(target)
        if not context:
            return base, n_tokens
        head_n = min(self.order - 1, len(target))
        tail = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        head_sum = 0.0
        for lp in self.logprobs(tail + tuple(target[:head_n]), len(tail)):
            head_sum += lp
        adjusted = base
        for lp in self.logprobs(tuple(target), 0)[:head_n]:
            adjusted -= lp
        adjusted += head_sum
        return adjusted, n_tokens


def random_corpus(rng, kind, n_docs, n_types, length):
    """Documents of string, byte (int) or mixed tokens; the mixed kind
    also holds a token spelled like the unknown symbol."""
    docs = []
    for _ in range(n_docs):
        ids = rng.integers(0, n_types, size=int(rng.integers(1, length + 1))).tolist()
        if kind == "byte":
            docs.append(ids)
        elif kind == "str":
            docs.append([f"w{i}" for i in ids])
        else:
            docs.append([i if i % 3 == 0 else (UNK if i == 1 else f"w{i}") for i in ids])
    return docs


def saved(model, path):
    model.save(path)
    return path


def rewrite_header(path, **changes):
    """Rewrite fields of a saved model's JSON header line in place."""
    line, _, body = path.read_bytes().partition(b"\n")
    header = {**json.loads(line), **changes}
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)


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
        assert raw.vocab == docs.vocab == ("x", "y")
        assert np.array_equal(raw.keys, docs.keys)
        assert np.array_equal(raw.counts, docs.counts)

    def test_counts_aggregate_across_documents(self):
        one = train_ngram([["x", "y"], ["y", "x"]], order=2, k=0.1)
        assert one.prob("y", ("x",)) == pytest.approx(1.1 / (1 + 0.1 * 3), rel=1e-12)

    def test_retraining_is_deterministic(self, tmp_path):
        corpus = [["a", "b", "c", "a"], ["b", "c"]]
        first = saved(train_ngram(corpus, order=3, k=0.01), tmp_path / "a.bin")
        second = saved(train_ngram(corpus, order=3, k=0.01), tmp_path / "b.bin")
        assert first.read_bytes() == second.read_bytes()

    def test_untokenized_document_rejected(self):
        doc = Document(id="d", source="s", text="a b")
        with pytest.raises(ValueError):
            train_ngram([doc])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            train_ngram([])
        with pytest.raises(ConfigError):
            train_ngram([[]])

    @staticmethod
    def _model(order, k):
        empty = np.zeros(0, dtype=np.int64)
        return NGramModel(order, k, "whitespace", ("a",), empty, empty)

    def test_order_bounds(self):
        with pytest.raises(ConfigError):
            self._model(order=0, k=0.1)
        with pytest.raises(ConfigError):
            self._model(order=6, k=0.1)

    def test_k_must_be_positive_finite(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                self._model(order=2, k=bad)


class TestSerialization:
    def test_save_is_byte_stable(self, bigram, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        bigram.save(a)
        NGramModel.load(a).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_file_bytes_are_pinned(self, tmp_path):
        # Recorded when the header was written by its own json.dumps call;
        # the vocabulary's non-ASCII tokens are stored as UTF-8.
        model = train_ngram([["a", "é", "b", "a", "日本", "b"], ["b", "a", "é"]], order=3, k=0.25)
        data = saved(model, tmp_path / "model.bin").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "8ee921c797561945efa535c97a12ec1b5cc1f3eab9f1e2c3f040c96f42ab6d18"
        )

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

    def test_wrong_format_rejected(self, bigram, tmp_path):
        path = saved(bigram, tmp_path / "model.bin")
        rewrite_header(path, format="other")
        with pytest.raises(ConfigError, match="not a longdep-ngram model file"):
            NGramModel.load(path)

    def test_wrong_version_rejected(self, bigram, tmp_path):
        path = saved(bigram, tmp_path / "model.bin")
        rewrite_header(path, version=99)
        with pytest.raises(ConfigError, match="unsupported model version 99"):
            NGramModel.load(path)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read model file"):
            NGramModel.load(tmp_path)

    @pytest.mark.parametrize("data", [b"not json\n" + bytes(16), b'{"format": "longdep-ngram"}'])
    def test_file_without_a_json_header_line_rejected(self, tmp_path, data):
        path = tmp_path / "model.bin"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match="not a longdep-ngram model file"):
            NGramModel.load(path)

    @pytest.mark.parametrize(
        "field, value",
        [("order", "2"), ("order", True), ("k", "0.5"), ("tokenizer_kind", 1),
         ("vocab", "abc"), ("vocab", ["a", 1.5, "c"]), ("entries", 6.0)],
    )
    def test_header_field_of_the_wrong_type_rejected(self, bigram, tmp_path, field, value):
        path = saved(bigram, tmp_path / "model.bin")
        rewrite_header(path, **{field: value})
        with pytest.raises(ConfigError, match="malformed model header"):
            NGramModel.load(path)

    def test_payload_round_trip_preserves_counts(self, bigram, tmp_path):
        clone = NGramModel.load(saved(bigram, tmp_path / "model.bin"))
        assert np.array_equal(clone.keys, bigram.keys)
        assert np.array_equal(clone.counts, bigram.counts)
        assert clone.vocab == bigram.vocab
        assert (clone.order, clone.k, clone.tokenizer_kind) == (2, 0.5, "whitespace")

    def test_file_is_header_line_then_int64_keys_and_counts(self, bigram, tmp_path):
        line, _, body = saved(bigram, tmp_path / "model.bin").read_bytes().partition(b"\n")
        assert json.loads(line) == {
            "entries": 6,
            "format": "longdep-ngram",
            "k": 0.5,
            "order": 2,
            "tokenizer_kind": "whitespace",
            "version": 2,
            "vocab": ["a", "b", "c"],
        }
        # Width V + 1 = 4. Unigrams a, b, c have history 0 and are
        # entries 0-2, so history (a,) has id 1 and (b,) id 2.
        keys = [0, 1, 2, 4 + 1, 4 + 2, 8 + 0]
        counts = [2, 1, 1, 1, 1, 1]
        assert np.frombuffer(body, dtype="<i8").tolist() == keys + counts

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "one entry short", "extended", "stray byte", "unsorted", "unknown token",
         "orphan", "zero count", "too deep"],
    )
    def test_damaged_body_rejected(self, bigram, tmp_path, damage):
        path = saved(bigram, tmp_path / "model.bin")
        line, _, body = path.read_bytes().partition(b"\n")
        arrays = np.frombuffer(body, dtype="<i8").copy()
        # "extended" is one entry long.
        resized = {"truncated": body[:-3], "one entry short": body[:-16],
                   "extended": body + bytes(16), "stray byte": body + b"\0"}
        match = None
        if damage == "too deep":
            # The bigram entries spell one-token histories, too long for
            # an order-1 model.
            line = json.dumps({**json.loads(line), "order": 1}).encode("utf-8")
        elif damage in resized:
            body = resized[damage]
            match = f"model body holds {len(body)} bytes, expected 96 for 6 entries"
        else:
            if damage == "unsorted":
                arrays[[0, 1]] = arrays[[1, 0]]
            elif damage == "unknown token":
                arrays[0] = 3  # id V, the unknown symbol, is never an entry
            elif damage == "orphan":
                arrays[5] = 4 * 6 + 1  # history id 6 names no earlier entry
            else:
                arrays[6] = 0
            body = arrays.tobytes()
        path.write_bytes(line + b"\n" + body)
        with pytest.raises(ConfigError, match=match):
            NGramModel.load(path)

    def test_key_overflow_refused_before_reading_entries(self, tmp_path):
        path = tmp_path / "model.bin"
        header = {
            "format": "longdep-ngram", "version": 2, "order": 5, "k": 0.01,
            "tokenizer_kind": "whitespace", "vocab": ["a", "b", "c"], "entries": 2**62,
        }
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n")
        with pytest.raises(ConfigError, match="64-bit"):
            NGramModel.load(path)

    def test_more_entries_than_memory_holds_refused(self, tmp_path):
        # 2**58 entries are 2**62 bytes: the body's array cannot be made.
        path = tmp_path / "model.bin"
        header = {
            "format": "longdep-ngram", "version": 2, "order": 1, "k": 0.01,
            "tokenizer_kind": "whitespace", "vocab": ["a"], "entries": 2**58,
        }
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + bytes(16))
        with pytest.raises(ConfigError, match=f"{2**58} entries do not fit in memory"):
            NGramModel.load(path)

    @pytest.mark.parametrize("damage", [None, "extended", "one entry short"])
    def test_model_loads_through_a_pipe(self, tmp_path, damage):
        # The body is larger than a pipe's buffer, so it arrives in parts.
        rng = np.random.default_rng(3)
        model = train_ngram(random_corpus(rng, "str", n_docs=20, n_types=400, length=400), 3, 0.1)
        data = saved(model, tmp_path / "model.bin").read_bytes()
        assert len(data) > 65536
        data = {None: data, "extended": data + bytes(16), "one entry short": data[:-16]}[damage]
        read_fd, write_fd = os.pipe()

        def feed():
            with open(write_fd, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            if damage:
                with pytest.raises(ConfigError, match="model body holds"):
                    NGramModel.load(f"/dev/fd/{read_fd}")
            else:
                loaded = NGramModel.load(f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)
            writer.join(timeout=30)
        assert not writer.is_alive()
        if not damage:
            assert np.array_equal(loaded.keys, model.keys)
            assert np.array_equal(loaded.counts, model.counts)
            assert loaded.seq_logprob(model.vocab[:9]) == model.seq_logprob(model.vocab[:9])

    def test_load_memory_stays_near_the_body(self, tmp_path):
        rng = np.random.default_rng(11)
        corpus = [[f"w{i}" for i in rng.zipf(1.1, size=25_000) % 1_500] for _ in range(6)]
        path = saved(train_ngram(corpus, order=3, k=0.01), tmp_path / "model.bin")
        n = json.loads(path.read_bytes().partition(b"\n")[0])["entries"]
        assert n >= 100_000
        tracemalloc.start()
        try:
            model = NGramModel.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The file's body is 16 bytes per entry; the load peaks at under
        # 3.5 times that.
        assert peak <= 3.5 * 16 * n
        # Beyond keys and counts, what scoring keeps per entry or per
        # history id is two int32 codes.
        tables = model._tables
        arrays = [getattr(tables, name) for name in tables.__slots__]
        per_entry = [a for a in arrays if isinstance(a, np.ndarray) and len(a) >= n]
        assert 0 < sum(a.nbytes for a in per_entry) <= 8 * (n + 2)


class TestMatchesLoopReference:
    """The array-backed model against ``LoopNGram``, compared with ==."""

    @pytest.mark.parametrize("kind", ["str", "byte", "mixed"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_scores_are_bit_identical(self, kind, order, tmp_path):
        rng = np.random.default_rng(order * 10 + len(kind))
        corpus = random_corpus(rng, kind, n_docs=6, n_types=12, length=60)
        self.check(corpus, order, 0.05, rng, tmp_path, n_probes=150)

    def test_large_vocabulary_order_5(self, tmp_path):
        # (V + 1) ** 5 is far beyond int64 here; interned history ids
        # keep every key below (entries + 1) * (V + 1).
        rng = np.random.default_rng(7)
        corpus = [[f"w{i}" for i in rng.permutation(7000)]]
        corpus += random_corpus(rng, "str", n_docs=4, n_types=7200, length=2000)
        model = self.check(corpus, 5, 0.01, rng, tmp_path, n_probes=300)
        assert len(model.vocab) >= 7000 and (len(model.vocab) + 1) ** 5 > 2**63

    @pytest.mark.parametrize("kind", ["str", "byte", "mixed"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_every_table_value_keeps_its_bits(self, kind, order, tmp_path):
        # Each entry's log-probability, and each history id's for a token
        # it never preceded (id V, the unknown symbol, is never an entry),
        # against the formula over LoopNGram's counts, bit for bit.
        rng = np.random.default_rng(order * 100 + len(kind))
        corpus = random_corpus(rng, kind, n_docs=6, n_types=12, length=60)
        k = 0.05
        ref = LoopNGram(corpus, order, k)
        denom = k * (len(ref.vocab) + 1)
        model = NGramModel.load(saved(train_ngram(corpus, order=order, k=k), tmp_path / "m.bin"))
        width = len(model.vocab) + 1
        hists = [()]  # hists[h] spells history id h
        want_entry = []
        for key in model.keys.tolist():
            hist, tok = hists[key // width], model.vocab[key % width]
            hists.append(hist + (tok,))
            want_entry.append(math.log((ref.counts[hist][tok] + k) / (ref.totals[hist] + denom)))
        want_unseen = [math.log(k / (ref.totals.get(hist, 0) + denom)) for hist in hists]
        want_unseen.append(math.log(k / (0 + denom)))  # -1, a history never seen
        ids = np.array([*range(len(hists)), -1])
        _, got_entry = model._step(model.keys // width, model.keys % width)
        _, got_unseen = model._step(ids, np.full(len(ids), width - 1))
        assert got_entry.view(np.int64).tolist() == np.array(want_entry).view(np.int64).tolist()
        assert got_unseen.view(np.int64).tolist() == np.array(want_unseen).view(np.int64).tolist()

    @staticmethod
    def check(corpus, order, k, rng, tmp_path, n_probes):
        ref = LoopNGram(corpus, order, k)
        trained = train_ngram(corpus, order=order, k=k)
        loaded = NGramModel.load(saved(trained, tmp_path / "model.bin"))
        assert set(loaded.vocab) == ref.vocab
        pool = [tok for doc in corpus for tok in doc] + ["never-seen", 999]
        for model in (trained, loaded):
            backend = NGramBackend(model)
            for _ in range(n_probes):
                target = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 9))]
                context = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(0, 9))]
                for i in range(len(target)):
                    history = target[max(0, i - order - 1):i]
                    assert model.prob(target[i], history) == ref.prob(target[i], history)
                assert model.seq_logprob(target, context) == ref.seq_logprob(target, context)
                want = ref.backend_score(target, context)
                assert backend.score(target, context) == want
                assert backend.score(target, context) == want
                assert backend.score(target) == ref.backend_score(target)
        return trained


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
        # score_pairs keeps the unconditional sums of one document's
        # target segments, keyed by content; the next document's replace
        # them. A segment that is only a source is not kept.
        backend = NGramBackend(bigram)
        first = (("a", "b"), ("b", "c"), ("a", "b"))
        second = (("c", "a"), ("zz", "b"))
        want = [bigram.seq_logprob(seg) for seg in first + second]
        backend.score_pairs(first, [1, 2], [0, 1])
        assert set(backend._segment_sums) == {("b", "c"), ("a", "b")}
        backend.score_pairs(second, [1], [0])
        assert set(backend._segment_sums) == {("zz", "b")}
        assert [backend.score(seg) for seg in first + second] == want

    def test_empty_target_rejected(self, bigram):
        backend = NGramBackend(bigram)
        with pytest.raises(ValueError):
            backend.score(())


def grid_of(rng, pool, n_segments, length):
    tokens = [pool[i] for i in rng.integers(0, len(pool), size=n_segments * length)]
    segments = tuple(
        tuple(tokens[i * length:(i + 1) * length]) for i in range(n_segments)
    )
    if n_segments > 3:
        segments = segments[:-1] + (segments[1],)  # a repeated segment
    return SegmentGrid(doc_id="doc", segment_len=length, segments=segments)


class TestScorePairs:
    """One call per document against the per-pair path, compared with ==."""

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_equals_per_pair_score_and_seq_logprob(self, order):
        rng = np.random.default_rng(100 + order)
        corpus = random_corpus(rng, "mixed", n_docs=6, n_types=12, length=80)
        ref = LoopNGram(corpus, order, 0.05)
        model = train_ngram(corpus, order=order, k=0.05)
        pool = [tok for doc in corpus for tok in doc] + ["never-seen", 999, UNK]
        # Lengths below, at and above order - 1.
        for length in (1, 2, order - 1, order, 6):
            grid = grid_of(rng, pool, int(rng.integers(2, 9)), max(length, 1))
            segments, n = grid.segments, grid.n_segments
            pairs = [(t, s) for t in range(n) for s in range(n) if rng.random() < 0.6]
            targets, sources = [t for t, _ in pairs], [s for _, s in pairs]
            backend = NGramBackend(model)
            got = list(backend.score_pairs(segments, targets, sources))
            assert got == [NGramBackend(model).score(segments[t], segments[s]) for t, s in pairs]
            assert got == [ref.backend_score(segments[t], segments[s]) for t, s in pairs]
            assert set(backend._segment_sums) == {segments[t] for t in targets}
            for seg in backend._segment_sums:
                assert backend._segment_sums[seg] == model.seq_logprob(seg)[0]
            for seg in segments:
                assert backend.score(seg) == model.seq_logprob(seg)
                assert backend.score(seg) == ref.seq_logprob(seg)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_document_scores_equal_the_per_pair_adapter(self, order, mode):
        # CountingBackend has no score_pairs, so lds scores pair by pair.
        rng = np.random.default_rng(200 + order)
        corpus = random_corpus(rng, "mixed", n_docs=6, n_types=12, length=80)
        model = train_ngram(corpus, order=order, k=0.05)
        pool = [tok for doc in corpus for tok in doc] + ["never-seen", UNK]
        for length in (1, 3, 8):
            grid = grid_of(rng, pool, 12, length)
            cfg = LdsConfig(
                segment_len=length, truncate_len=2 * length, mode=mode, sample_size=20, tau=0.0,
                seed=derive_seed(0, f"{order}-{length}"),
            )
            batch = score_document(NGramBackend(model), grid, cfg)
            per_pair = score_document(CountingBackend(NGramBackend(model)), grid, cfg)
            assert batch == per_pair
            assert batch.pair_count == (66 if mode == "exact" else 20)

    def test_failing_documents_fail_the_same(self):
        # With k this small, a token never seen after its history (here c
        # after a) or never seen at all (zz) gets an infinite perplexity.
        model = train_ngram([["a", "b", "a", "b", "c"]], order=2, k=1e-310)
        docs = [
            Document(id="cond", source="s", text="", tokens=("a", "b", "c", "a", "c", "c")),
            Document(id="uncond", source="s", text="", tokens=("a", "zz", "b", "a")),
            Document(id="ok", source="s", text="", tokens=("a", "b")),
        ]
        cfg = LdsConfig(segment_len=1, truncate_len=8, mode="exact")
        outcomes = [
            [(o.status, o.reason, o.report) for o in score_corpus(docs, backend, cfg)]
            for backend in (NGramBackend(model), CountingBackend(NGramBackend(model)))
        ]
        assert outcomes[0] == outcomes[1]
        assert [status for status, _, _ in outcomes[0]] == ["failed", "failed", "scored"]
        assert all("non-finite perplexity" in reason for _, reason, _ in outcomes[0][:2])

    def test_non_finite_perplexity_names_its_pair_or_segment(self):
        # The documents of the test above: "cond" first fails at a pair,
        # "uncond" at a segment scored alone.
        model = train_ngram([["a", "b", "a", "b", "c"]], order=2, k=1e-310)
        cfg = LdsConfig(segment_len=1, truncate_len=8, mode="exact")
        cases = [
            (("a", "b", "c", "a", "c", "c"), "conditional scoring failed at pair (2, 0): "
             "non-finite perplexity from logprob_sum=-714.494526008714", 2),
            (("a", "zz", "b", "a"), "unconditional scoring failed at segment 1: "
             "non-finite perplexity from logprob_sum=-715.4108167405883", 0),
        ]
        for tokens, reason, pairs_scored in cases:
            grid = SegmentGrid(doc_id="d", segment_len=1, segments=tuple((t,) for t in tokens))
            counting = CountingBackend(NGramBackend(model))
            for backend in (NGramBackend(model), counting):
                with pytest.raises(ScoringError) as raised:
                    score_document(backend, grid, cfg)
                assert type(raised.value) is ScoringError
                assert str(raised.value) == reason
            # Pair by pair, scoring stops at the failing pair.
            assert counting.conditional_calls == pairs_scored

    def test_segments_of_different_lengths_rejected(self, bigram):
        with pytest.raises(ValueError):
            NGramBackend(bigram).score_pairs((("a",), ("a", "b")), [1], [0])

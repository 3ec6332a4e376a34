"""Tokenization, segmentation, and ingestion behavior."""

import json

import pytest

from longdep.corpus import (
    Document,
    IngestStats,
    SegmentGrid,
    detokenize,
    ingest,
    segment,
    tokenize,
)
from longdep.errors import DocumentTooShort


def tokens_of(text, kind="whitespace"):
    return tokenize(Document(id="d", source="s", text=text), kind).tokens


class TestTokenizer:
    def test_whitespace_splits_on_any_run(self):
        assert tokens_of("a  b\tc\nd") == ("a", "b", "c", "d")

    def test_whitespace_single_word_falls_back_to_bytes(self):
        assert tokens_of("  hi ") == (104, 105)

    def test_byte_mode_yields_utf8_values(self):
        assert tokens_of(" hé ", "byte") == tuple(" hé ".encode("utf-8"))

    def test_detokenize_inverts_whitespace(self):
        assert detokenize(tokens_of("a b c")) == "a b c"

    def test_detokenize_inverts_bytes(self):
        assert detokenize(tokens_of("hé", "byte")) == "hé"

    def test_tokenizes_text_documents(self):
        doc = Document(id="a", source="s", text="one two three")
        out = tokenize(doc)
        assert out.tokens == ("one", "two", "three")
        assert (out.id, out.source, out.text) == (doc.id, doc.source, doc.text)

    def test_pretokenized_documents_pass_through(self):
        doc = Document(id="a", source="s", text="ignored", tokens=(1, 2, 3))
        assert tokenize(doc, "byte") is doc

    @pytest.mark.parametrize(
        "text, kind", [("", "whitespace"), (" \t\n ", "whitespace"), ("", "byte")]
    )
    def test_text_without_tokens_gives_no_tokens(self, text, kind):
        assert tokens_of(text, kind) == ()

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="tokenizer must be one of"):
            tokenize(Document(id="a", source="s", text="one two"), "sentencepiece")

    @pytest.mark.parametrize(
        "text",
        [
            "a  b\tc\nd e", "  lead and trail  \n", "hé ll ö\u3000日本 x", "  one-blob  ",
            "ab", "",
        ],
    )
    @pytest.mark.parametrize("kind", ["whitespace", "byte"])
    def test_a_limit_keeps_the_first_tokens(self, text, kind):
        doc = Document(id="d", source="s", text=text)
        full = tokenize(doc, kind).tokens
        for limit in range(2, len(full) + 3):
            assert tokenize(doc, kind, limit).tokens == full[:limit]

    def test_a_limit_below_two_is_refused(self):
        with pytest.raises(ValueError, match="limit must be at least 2"):
            tokenize(Document(id="d", source="s", text="a b c"), "whitespace", 1)


class TestSegment:
    def _doc(self, n_tokens):
        return Document(
            id="d", source="s", text="", tokens=tuple(range(n_tokens))
        )

    def test_exact_multiple_keeps_everything(self):
        grid = segment(self._doc(12), 4, 100)
        assert grid.n_segments == 3
        assert grid.segments == ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))

    def test_trailing_remainder_is_dropped(self):
        grid = segment(self._doc(11), 4, 100)
        assert grid.n_segments == 2
        assert grid.segments[-1] == (4, 5, 6, 7)

    def test_truncation_applies_before_segmenting(self):
        grid = segment(self._doc(100), 4, 9)
        assert grid.n_segments == 2
        assert grid.segments == ((0, 1, 2, 3), (4, 5, 6, 7))

    def test_short_document_raises(self):
        with pytest.raises(DocumentTooShort):
            segment(self._doc(7), 4, 100)

    def test_document_with_no_tokens_is_too_short(self):
        with pytest.raises(DocumentTooShort, match="'d' has 0 tokens, needs at least 8"):
            segment(self._doc(0), 4, 100)

    def test_untokenized_document_rejected(self):
        doc = Document(id="d", source="s", text="a b")
        with pytest.raises(ValueError):
            segment(doc, 4, 100)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            segment(self._doc(12), 0, 100)
        with pytest.raises(ValueError):
            segment(self._doc(12), 4, 7)

    def test_grid_carries_identity(self):
        doc = Document(id="d9", source="web", text="", tokens=tuple(range(8)))
        grid = segment(doc, 4, 100)
        assert grid.doc_id == "d9"
        assert grid.source == "web"
        assert grid.segment_len == 4

    @pytest.mark.parametrize(
        "segments", [((0, 1, 2, 3), (4, 5, 6)), ((0, 1, 2), (3, 4, 5)), ((0, 1, 2, 3, 4),)]
    )
    def test_grid_refuses_a_segment_of_another_length(self, segments):
        with pytest.raises(ValueError, match="is not 4 tokens long"):
            SegmentGrid(doc_id="d", segment_len=4, segments=segments)


class TestIngestJsonl:
    def _write(self, path, rows):
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(row + "\n")

    def test_reads_documents_in_order(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write(
            path,
            [
                json.dumps({"id": "a", "text": "one two"}),
                json.dumps({"id": "b", "text": "three", "source": "book"}),
            ],
        )
        docs = list(ingest(path))
        assert [d.id for d in docs] == ["a", "b"]
        assert docs[0].source == "corpus"
        assert docs[1].source == "book"
        assert docs[0].text == "one two"

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write(path, ["", json.dumps({"id": "a", "text": "x"}), "   ", ""])
        stats = IngestStats()
        docs = list(ingest(path, stats=stats))
        assert len(docs) == 1
        assert stats.read == 1
        assert stats.yielded == 1

    def test_malformed_rows_are_counted_and_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write(
            path,
            [
                "{not json",
                json.dumps({"text": "missing id"}),
                json.dumps({"id": "a"}),
                json.dumps({"id": "", "text": "empty id"}),
                json.dumps({"id": "b", "text": 5}),
                json.dumps({"id": True, "text": "a bool id"}),
                '{"id": 1e2, "text": "a float id"}',
                json.dumps({"id": {"x": 1}, "text": "an object id"}),
                json.dumps({"id": ["c"], "text": "a list id"}),
                '{"id": %s, "text": "an integer id too long to read"}' % ("1" * 5000),
                json.dumps({"id": "ok", "text": "fine"}),
                json.dumps({"id": 7, "text": "an integer id"}),
            ],
        )
        stats = IngestStats()
        docs = list(ingest(path, stats=stats))
        assert [d.id for d in docs] == ["ok", "7"]
        assert stats.read == 12
        assert stats.skipped_malformed == 10
        assert stats.yielded == 2

    def test_fields_that_do_not_encode_as_utf8_are_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lone = "\ud800"
        self._write(
            path,
            [
                json.dumps({"id": "a", "text": f"one {lone} two"}),
                json.dumps({"id": f"b{lone}", "text": "one two"}),
                json.dumps({"id": "c", "text": "one two", "source": lone}),
                json.dumps({"id": "ok", "text": "fine é"}),
            ],
        )
        assert '"\\ud800' in path.read_text(encoding="utf-8")
        stats = IngestStats()
        docs = list(ingest(path, stats=stats))
        assert [d.id for d in docs] == ["ok"]
        assert stats.read == 4
        assert stats.skipped_malformed == 3
        assert stats.yielded == 1

    def test_pretokenized_record_keeps_its_tokens(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write(path, [json.dumps({"id": "a", "text": "", "tokens": ["x y", "é", "z"]})])
        (doc,) = ingest(path)
        assert doc.tokens == ("x y", "é", "z")
        assert doc.text == ""

    def test_tokens_of_any_other_kind_are_malformed(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        bad = [[], "a b", [1, 2], ["a", None], None, {"a": 1}, ["a", "\ud800"]]
        self._write(
            path,
            [
                json.dumps({"id": f"b{i}", "text": "a b", "tokens": value})
                for i, value in enumerate(bad)
            ]
            + [json.dumps({"id": "ok", "text": "a b"})],
        )
        stats = IngestStats()
        docs = list(ingest(path, stats=stats))
        assert [d.id for d in docs] == ["ok"]
        assert docs[0].tokens is None
        assert stats.skipped_malformed == len(bad)

    def test_bytes_that_are_not_utf8_make_a_malformed_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [json.dumps({"id": f"d{i}", "text": "one two"}).encode("utf-8") for i in range(4)]
        lines[1:1] = [b'{"id": "x", "text": "one \xff two"}', b'{"id": "y"\xfe, "text": "a b"}']
        path.write_bytes(b"\n".join(lines) + b"\n")
        stats = IngestStats()
        docs = list(ingest(path, stats=stats))
        assert [d.id for d in docs] == ["d0", "d1", "d2", "d3"]
        assert (stats.read, stats.skipped_malformed, stats.yielded) == (6, 2, 4)

    def test_leading_bom_is_ignored(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [json.dumps({"id": "a", "text": "one"}), json.dumps({"id": "b", "text": "two"})]
        path.write_bytes(b"\xef\xbb\xbf" + "\n".join(rows).encode("utf-8") + b"\n")
        stats = IngestStats()
        docs = list(ingest(path, stats=stats))
        assert [d.id for d in docs] == ["a", "b"]
        assert stats.skipped_malformed == 0

    def test_duplicate_ids_keep_first(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write(
            path,
            [
                json.dumps({"id": "a", "text": "first"}),
                json.dumps({"id": "a", "text": "second"}),
            ],
        )
        stats = IngestStats()
        docs = list(ingest(path, stats=stats))
        assert len(docs) == 1
        assert docs[0].text == "first"
        assert stats.skipped_duplicate_id == 1

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            list(ingest(tmp_path, format="parquet"))


class TestIngestPlainDir:
    def test_walks_sorted_with_relative_ids(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "b.txt").write_text("beta", encoding="utf-8")
        (tmp_path / "sub" / "a.txt").write_text("alpha", encoding="utf-8")
        docs = list(ingest(tmp_path, format="plain-dir"))
        assert [d.id for d in docs] == sorted(d.id for d in docs)
        by_id = {d.id: d for d in docs}
        assert by_id["b.txt"].text == "beta"
        assert by_id["b.txt"].source == "b"
        nested = [d for d in docs if d.id.endswith("a.txt")]
        assert nested[0].text == "alpha"

    def test_leading_bom_is_dropped(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"\xef\xbb\xbfhello world")
        stats = IngestStats()
        [doc] = ingest(tmp_path, format="plain-dir", stats=stats)
        assert doc.text == "hello world"
        assert tokens_of(doc.text) == ("hello", "world")
        assert stats.skipped_malformed == 0

    def test_bytes_that_are_not_utf8_make_a_malformed_file(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"good words here")
        (tmp_path / "b.txt").write_bytes(b"bad \xff\xfe bytes here")
        stats = IngestStats()
        docs = list(ingest(tmp_path, format="plain-dir", stats=stats))
        assert [d.id for d in docs] == ["a.txt"]
        assert (stats.read, stats.skipped_malformed, stats.yielded) == (2, 1, 1)

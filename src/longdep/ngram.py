"""Add-k smoothed n-gram language model and its perplexity backend.

This is the built-in scorer: deterministic, fast, and good enough to
drive the pipeline end to end. Production-accuracy scoring plugs in
through the external backend instead.

Probability model: the vocabulary is frozen at training time to the
observed token types plus one reserved unknown symbol. For a history h
(up to order-1 tokens) and token t,

    P(t | h) = (count(h, t) + k) / (count(h) + k * (V + 1))

where V is the number of observed types. Any token outside the
vocabulary, in the target or in the history, maps to the unknown symbol.
Conditional distributions therefore sum to one over vocabulary plus
unknown mass. Counts are kept for every history length from 0 to
order-1 so the first tokens of a sequence are scored with whatever
history actually exists.

Storage: the vocabulary, sorted with ``_token_sort_key``, is interned to
ids 0..V-1, and the unknown symbol is id V. Every observed (history,
token) pair is one entry with the integer key ``hist_id * (V + 1) + tok``.
The empty history has id 0; any longer history h + (t,) has id 1 + the
index of the entry (h, t) in key order. Entries of longer histories have
larger ids, so a key stays below ``(entries + 1) * (V + 1)`` and every
history is spelled out by entries that sort before it. A model whose
keys could leave int64 is refused.

Model file, version 2: one line of canonical JSON holding ``format``,
``version``, ``order``, ``k``, ``tokenizer_kind``, ``vocab`` (in id order)
and ``entries``, then the entry keys in ascending order and their counts,
each as ``entries`` little-endian int64 values. Identical input gives a
byte-identical file. Version 1 files (nested JSON counts) are refused
with a request to retrain.

Scoring reads arrays built once per model, on first use. ``lps`` holds
the natural log-probability of every distinct value of the formula,
ascending; ``entry_code`` holds, in key order, the int32 index into
``lps`` of every entry's log-probability, and ``unseen_code``, per
history id, that of tokens the history never preceded. So a model keeps
8 bytes per entry beside its keys and counts; int32 codes hold up to
2^31 distinct values, and a model that would need more (a body of at
least 16 GB) is refused. Indexed by token id, ``unigram_entry`` and
``unigram_lp`` hold the entry and log-probability of each token after
the empty history. Training never builds these arrays. They are
computed with ``math.log`` over the same float operations as the formula
above, so a score does not depend on how the model was stored; a ``k``
that makes a probability 0 or not finite has no log and is refused. A
sequence is scored by walking it: each position's history id extends
the previous position's by one token, found by a sorted search of the
entry keys.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain, count, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Document, Token
from .errors import ConfigError
from .jsonio import canonical_dumps, open_atomic

MODEL_FORMAT = "longdep-ngram"
MODEL_VERSION = 2

# Reserved unknown symbol; never produced by the tokenizers.
UNK = "\x00unk"

_FILE_INT = np.dtype("<i8")
_KEY_LIMIT = 2**63


def _token_sort_key(tok: Token):
    # Ints sort before strings; never compares across types.
    return (0, tok) if isinstance(tok, int) else (1, tok)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_key_space(n_entries: int, width: int) -> None:
    """Refuse a model whose keys, each below (n_entries + 1) * width,
    could exceed int64."""
    if (n_entries + 1) * width >= _KEY_LIMIT:
        raise ConfigError(
            f"n-gram model too large for 64-bit keys: up to {n_entries} entries "
            f"over a vocabulary of {width - 1}"
        )


def _logs(k: float, *ratios: np.ndarray) -> tuple:
    """The ``math.log`` of every distinct value among the arrays
    ``ratios`` of a model with smoothing constant ``k``, in one float64
    table, then for each array the int32 code of each of its values in
    that table. Ratios repeat a lot (every count-1 entry of a history
    shares one), so each distinct value is logged once."""
    values = np.concatenate(ratios)
    values.sort()
    distinct = values[np.append(True, values[1:] != values[:-1])]
    del values
    if not (distinct[0] > 0 and math.isfinite(distinct[-1])):
        bad = float(distinct[0] if distinct[0] <= 0 else distinct[-1])
        raise ConfigError(
            f"smoothing constant k={k!r} gives a probability of {bad!r}, which has no "
            "finite log; retrain with another k"
        )
    if len(distinct) > 2**31:
        raise ConfigError(f"{len(distinct)} distinct probabilities exceed 32-bit codes")
    lps = np.array(list(map(math.log, distinct.tolist())))
    return (lps, *(np.searchsorted(distinct, r).astype(np.int32) for r in ratios))


def _row_sums(lps: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right from 0.0 as a Python loop
    adds it."""
    if not lps.shape[1]:
        return np.zeros(len(lps))
    return np.add.accumulate(lps, axis=1)[:, -1]


class _Tables:
    """What scoring looks up; see the module docstring."""

    __slots__ = (
        "ids", "unk", "width", "lps", "entry_code", "unseen_code", "unigram_entry", "unigram_lp",
    )

    def __init__(self, model: "NGramModel"):
        vocab, keys, counts, k = model.vocab, model.keys, model.counts, model.k
        self.ids = {tok: i for i, tok in enumerate(vocab)}
        # A token spelled like UNK counts as one; otherwise UNK is id V.
        self.unk = self.ids.get(UNK, len(vocab))
        self.width = width = len(vocab) + 1
        denom = k * width
        # Each temporary is dropped once used, which keeps a load's peak
        # near three times the file's body. The entries of one history are
        # adjacent: ``firsts`` holds the index of each history's first
        # entry and ``hists`` its id.
        hids = keys // width
        begins = np.empty(len(keys), dtype=bool)
        begins[0] = True
        np.not_equal(hids[1:], hids[:-1], out=begins[1:])
        firsts = np.flatnonzero(begins)
        hists = hids[firsts]
        del begins, hids
        # Keys ascend, so every entry names an earlier entry's history
        # exactly when the first entry of its history does.
        if not (hists <= firsts).all():
            raise ConfigError("inconsistent model entries")
        # Every history is at most order - 1 tokens long: following it
        # back one entry at a time reaches the empty history in that
        # many steps.
        parent = hists
        for _ in range(model.order - 1):
            parent = np.where(parent > 0, keys[parent - 1] // width, 0)
        if parent.any():
            raise ConfigError("model entries spell a history longer than order - 1")
        dens = np.add.reduceat(counts, firsts) + denom  # total + k * (V + 1)
        unseen = k / dens
        spread = np.repeat(dens, np.diff(firsts, append=len(keys)))
        del dens, firsts
        # In place where the sum is a float; an int k keeps int64 sums, as
        # the formula's own operations do.
        ratios = counts + k
        ratios = np.divide(ratios, spread, out=ratios if ratios.dtype == np.float64 else None)
        del spread
        # ``entry_code`` follows ``keys``; ``unseen_code`` is indexed by
        # history id. Ids that begin no entry, and -1 (the last slot) for
        # a history never seen, hold the formula with count = total = 0.
        self.lps, self.entry_code, unseen, (fallback,) = _logs(
            k, ratios, unseen, np.array([(0 + k) / (0 + denom)])
        )
        del ratios
        self.unseen_code = np.full(len(keys) + 2, fallback, dtype=np.int32)
        self.unseen_code[hists] = unseen
        # The first lookup of every token has the empty history: one slot
        # per token id, no search.
        unigrams = keys[: np.searchsorted(keys, width)]
        self.unigram_entry = np.full(width, -1)
        self.unigram_entry[unigrams] = np.arange(1, len(unigrams) + 1)
        self.unigram_lp = np.full(width, self.lps[self.unseen_code[0]])
        self.unigram_lp[unigrams] = self.lps[self.entry_code[: len(unigrams)]]


def check_order_and_k(order: int, k: float) -> None:
    """Raise ConfigError unless ``order`` and ``k`` can make a model."""
    if not 1 <= order <= 5:
        raise ConfigError(f"order must be in [1, 5], got {order}")
    if not (k > 0 and math.isfinite(k)):
        raise ConfigError(f"smoothing constant k must be positive, got {k}")


class NGramModel:
    """Frozen add-k n-gram model over hashable tokens.

    ``vocab`` lists the token types in id order; ``keys`` (ascending)
    and ``counts`` are the int64 entry arrays described in the module
    docstring. The scoring tables are built on first use, so a model
    that is only trained and saved never builds them; ``load`` builds
    them at once, so a bad file fails there.
    """

    def __init__(
        self,
        order: int,
        k: float,
        tokenizer_kind: str,
        vocab: Sequence[Token],
        keys: np.ndarray,
        counts: np.ndarray,
    ):
        check_order_and_k(order, k)
        self.order = order
        self.k = k
        self.tokenizer_kind = tokenizer_kind
        self.vocab: tuple[Token, ...] = tuple(vocab)
        self.keys = keys
        self.counts = counts

    @functools.cached_property
    def _tables(self) -> _Tables:
        return _Tables(self)

    def _to_ids(self, tokens: Iterable[Token]) -> np.ndarray:
        tables = self._tables
        return np.fromiter(map(tables.ids.get, tokens, repeat(tables.unk)), dtype=np.int64)

    def _step(self, hist: np.ndarray, tok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For arrays of history ids and token ids: the id of each
        extended history (-1 where the model has no such entry) and the
        log-probability of each token after its history. Queries are
        sorted before the search, which keeps it cache-friendly on a
        large model."""
        tables, keys = self._tables, self.keys
        query = hist * tables.width + tok
        order = np.argsort(query, axis=None)
        pos = np.empty(query.size, dtype=np.int64)
        pos[order] = np.searchsorted(keys, query.ravel()[order])
        pos = np.minimum(pos.reshape(query.shape), len(keys) - 1)
        found = keys[pos] == query
        lp = tables.lps[np.where(found, tables.entry_code[pos], tables.unseen_code[hist])]
        return np.where(found, pos + 1, -1), lp

    def _walk(self, ids: np.ndarray) -> np.ndarray:
        """Log-probability of every token of every row of the id grid
        ``ids``, after the up to order - 1 ids before it in its row.

        Level h looks up each token after the h tokens before it; the
        entries it finds are the histories of level h + 1. A token's
        log-probability comes from level min(position, order - 1), so
        each level looks up only the ``width`` positions that it or a
        later level reads.
        """
        tables, length = self._tables, ids.shape[1]
        top = min(self.order - 1, length - 1)
        width = length - top
        lps = np.empty(ids.shape)
        first = ids[:, :width]
        entry, lp = tables.unigram_entry[first], tables.unigram_lp[first]
        for level in range(top + 1):
            if level:
                entry, lp = self._step(entry, ids[:, level:level + width])
            if level < top:
                lps[:, level] = lp[:, 0]
            else:
                lps[:, level:] = lp
        return lps

    def _walk_heads(self, tails: np.ndarray, rows: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Log-probability of every token of every row i of the id grid
        ``heads``, after the ids of row ``rows[i]`` of the grid ``tails``
        and the heads before it, up to order - 1 ids in all: the same
        values as ``_walk`` gives that part of each joined row.

        Every history that lies inside a tail is looked up once per row
        of ``tails``; each row of ``heads`` then looks up only the
        histories that reach into it.
        """
        tables, n, tail = self._tables, self.order - 1, tails.shape[1]
        # suffix[:, i] is the history id of tails[:, i:].
        entry = tables.unigram_entry[tails]
        suffix = np.empty_like(entry)
        suffix[:, tail - 1:] = entry[:, tail - 1:]
        for level in range(1, tail):
            entry, _ = self._step(entry[:, :tail - level], tails[:, level:])
            suffix[:, tail - 1 - level] = entry[:, -1]
        # Head token j reads the tail from max(0, j + tail - n) on, then
        # heads 0..j-1: one chain of steps per token, advanced together.
        width = heads.shape[1]
        starts = np.maximum(np.arange(width) + tail - n, 0)
        entry = suffix[rows[:, None], starts]
        lps = np.empty(heads.shape)
        for col in range(width):
            entry, lp = self._step(entry, heads[:, col:col + 1])
            lps[:, col] = lp[:, 0]
            entry = entry[:, 1:]
        return lps

    def prob(self, token: Token, history: Sequence[Token] = ()) -> float:
        """Smoothed conditional probability of ``token`` after ``history``."""
        n = self.order - 1
        ids = self._to_ids((*(tuple(history)[-n:] if n else ()), token))
        hist = np.zeros(1, dtype=np.int64)
        for i in range(len(ids) - 1):
            hist, _ = self._step(hist, ids[i:i + 1])
        h, width = int(hist[0]), self._tables.width
        count = total = 0
        if h >= 0:
            row = slice(*np.searchsorted(self.keys, (h * width, (h + 1) * width)))
            total = int(self.counts[row].sum())
            count = int(self.counts[row][self.keys[row] == h * width + ids[-1]].sum())
        return (count + self.k) / (total + self.k * (len(self.vocab) + 1))

    def seq_logprob(
        self, target: Sequence[Token], context: Sequence[Token] = ()
    ) -> tuple[float, int]:
        """Sum of per-token natural log probabilities over ``target``.

        Context tokens only extend the conditioning history; they
        contribute no terms of their own.
        """
        if not target:
            raise ValueError("target must be non-empty")
        n = self.order - 1
        tail = tuple(context)[-n:] if n else ()
        lps = self._walk(self._to_ids(chain(tail, target))[None, :])
        return float(_row_sums(lps[:, len(tail):])[0]), len(target)

    # -- serialization ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the version 2 model file, all or nothing; identical
        inputs produce a byte-identical file."""
        header = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "order": self.order,
            "k": self.k,
            "tokenizer_kind": self.tokenizer_kind,
            "vocab": list(self.vocab),
            "entries": len(self.keys),
        }
        with open_atomic(path, "wb") as fh:
            fh.write(canonical_dumps(header).encode("utf-8") + b"\n")
            fh.write(self.keys.astype(_FILE_INT).tobytes())
            fh.write(self.counts.astype(_FILE_INT).tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "NGramModel":
        """Read a version 2 model file; anything else raises ConfigError."""
        model = cls(*_read_model_file(path))
        try:
            model._tables  # built here, so entries that spell no history fail at load
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return model


def _read_model_file(path: str | Path) -> tuple:
    """(order, k, tokenizer_kind, vocab, keys, counts) of a version 2
    model file, checked. The body is read straight into one array, and
    its length is found by the read itself, so a pipe loads as a file
    does."""
    try:
        with open(path, "rb") as fh:
            order, k, kind, vocab, n = _read_header(fh.readline(), path)
            _check_key_space(n, len(vocab) + 1)
            try:
                arrays = np.empty(2 * n, dtype=_FILE_INT)
            except (MemoryError, ValueError):
                raise ConfigError(f"{path}: {n} entries do not fit in memory") from None
            # The body's bytes, counted to the end of the file.
            view, body = memoryview(arrays.view(np.uint8)), 0
            while body < len(view) and (got := fh.readinto(view[body:])):
                body += got
            while chunk := fh.read(1 << 16):
                body += len(chunk)
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    if body != arrays.nbytes:
        raise ConfigError(
            f"{path}: model body holds {body} bytes, expected "
            f"{arrays.nbytes} for {n} entries; the file is truncated or corrupt"
        )
    arrays = arrays.astype(np.int64, copy=False)
    keys, counts = arrays[:n], arrays[n:]
    # Keys ascend and name a vocabulary token; every count is positive.
    # That each names a history spelled by an earlier entry is checked
    # with the scoring tables.
    if not (
        keys[0] >= 0
        and (keys[1:] > keys[:-1]).all()
        and (keys % (len(vocab) + 1) < len(vocab)).all()
        and (counts > 0).all()
    ):
        raise ConfigError(f"{path}: inconsistent model entries")
    return order, k, kind, vocab, keys, counts


def _read_header(line: bytes, path: str | Path) -> tuple:
    """(order, k, tokenizer_kind, vocab, entries) of a model file's first
    line, checked."""
    try:
        header = json.loads(line) if line.endswith(b"\n") else None
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("format") != MODEL_FORMAT:
        raise ConfigError(f"{path} is not a {MODEL_FORMAT} model file")
    version = header.get("version")
    if version == 1:
        raise ConfigError(
            f"{path} is a version 1 model file, which is no longer read; "
            "retrain with `longdep train-ngram`"
        )
    if version != MODEL_VERSION:
        raise ConfigError(f"{path}: unsupported model version {version!r}")
    order, k, kind, vocab, n = (
        header.get(key) for key in ("order", "k", "tokenizer_kind", "vocab", "entries")
    )
    if not (
        _is_int(order)
        and (_is_int(k) or isinstance(k, float))
        and isinstance(kind, str)
        and isinstance(vocab, list)
        and all(isinstance(tok, str) or _is_int(tok) for tok in vocab)
        and len(set(vocab)) == len(vocab) > 0
        and _is_int(n)
        and n > 0
    ):
        raise ConfigError(f"{path}: malformed model header")
    return order, k, kind, vocab, n


def train_ngram(
    corpus: Iterable[Document] | Iterable[Sequence[Token]],
    order: int = 3,
    k: float = 0.01,
    tokenizer_kind: str = "whitespace",
) -> NGramModel:
    """Train an add-k model from a document stream (or raw token
    sequences). Fatal on an empty corpus."""
    check_order_and_k(order, k)
    # Provisional ids, one per distinct token: each document's new tokens
    # are numbered in set order. Only the sorted vocabulary's ids reach
    # the model, so that order never shows in it.
    index: dict[Token, int] = {}
    sequences = []
    for item in corpus:
        tokens = item.tokens if isinstance(item, Document) else item
        if tokens is None:
            raise ValueError("documents must be tokenized before training")
        if len(tokens):
            new = dict.fromkeys(tokens).keys() - index.keys()
            index.update(zip(new, count(len(index))))
            sequences.append(np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens)))
    if not sequences:
        raise ConfigError("cannot train an n-gram model on an empty corpus")
    vocab = sorted(index, key=_token_sort_key)
    rank = np.empty(len(vocab), dtype=np.int64)
    rank[[index[tok] for tok in vocab]] = np.arange(len(vocab))
    ids = rank[np.concatenate(sequences)]
    lengths = [len(seq) for seq in sequences]
    doc_end = np.repeat(np.cumsum(lengths), lengths)
    width = len(vocab) + 1
    _check_key_space(order * len(ids), width)
    # The smallest probability the model holds is that of a token never
    # seen after the empty history, whose total is every token.
    if not (math.isfinite(k * width) and k / (len(ids) + k * width) > 0):
        raise ConfigError(
            f"smoothing constant k={k!r} gives no finite log-probability over {len(ids)} "
            f"tokens and a vocabulary of {len(vocab)}: k * (V + 1) must be finite and "
            "k / (tokens + k * (V + 1)) above 0"
        )
    # Windows of length level + 1, one per start position that leaves the
    # window inside its document; ``hist`` is the id of each window's
    # history, the entry of its first ``level`` tokens.
    starts = np.arange(len(ids))
    hist = np.zeros(len(ids), dtype=np.int64)
    keys, counts, n_entries = [], [], 0
    for level in range(order):
        inside = starts + level < doc_end[starts]
        starts, hist = starts[inside], hist[inside]
        window = hist * width + ids[starts + level]
        level_keys, which, level_counts = np.unique(
            window, return_inverse=True, return_counts=True
        )
        hist = n_entries + 1 + which
        keys.append(level_keys)
        counts.append(level_counts.astype(np.int64))
        n_entries += len(level_keys)
    return NGramModel(
        order, k, tokenizer_kind, vocab, np.concatenate(keys), np.concatenate(counts)
    )


class NGramBackend:
    """Perplexity backend over a trained NGramModel.

    Conditioning with an n-gram window only changes the first order-1
    target tokens, so a conditional score is the unconditional sum with
    its head terms swapped for ones that see the context, in the order
    ``((base - lp0) - lp1 ...) + head_sum``. ``score`` with a context and
    ``score_pairs`` both compute it from one walk of the targets, one of
    the context tails, and steps of each target head after its tail.

    ``score_pairs`` scores a whole document's pair set in one call and
    keeps the unconditional sum of each of its distinct target segments,
    keyed by segment content, until the next call; ``score`` reads a
    target's sum from there when it has one. Both give the same floats.
    """

    def __init__(self, model: NGramModel):
        self.model = model
        self._segment_sums: dict[tuple[Token, ...], float] = {}

    def score(
        self,
        target: Sequence[Token],
        context: Sequence[Token] | None = None,
    ) -> tuple[float, int]:
        """Return (summed natural log probability, token count) for
        ``target``, optionally conditioned on ``context``."""
        if not target:
            raise ValueError("target must be non-empty")
        tgt = tuple(target)
        if not context:
            base = self._segment_sums.get(tgt)
            if base is None:
                base = self.model.seq_logprob(tgt)[0]
            return base, len(tgt)
        model = self.model
        n = model.order - 1
        ids = model._to_ids(tgt)[None, :]
        lps = model._walk(ids)
        tail = model._to_ids(tuple(context)[-n:] if n else ())[None, :]
        zero = np.zeros(1, dtype=np.int64)
        return float(self._swap_heads(lps, _row_sums(lps), zero, ids, tail, zero)[0]), len(tgt)

    def _swap_heads(
        self,
        lps: np.ndarray,
        sums: np.ndarray,
        targets: np.ndarray,
        ids: np.ndarray,
        tails: np.ndarray,
        sources: np.ndarray,
    ) -> np.ndarray:
        """The conditional sum of each pair i: ``sums[targets[i]]``, the
        plain sum of row ``targets[i]`` of ``lps`` (the walk of the id
        grid ``ids``), with its head terms swapped for ones that see the
        context tail ``tails[sources[i]]``."""
        width = min(self.model.order - 1, ids.shape[1])
        head = self.model._walk_heads(tails, sources, ids[targets, :width])
        stripped = sums
        for col in range(width):
            stripped = stripped - lps[:, col]
        return stripped[targets] + _row_sums(head)

    def score_pairs(
        self,
        segments: Sequence[Sequence[Token]],
        targets: Sequence[int],
        sources: Sequence[int],
    ) -> Iterator[tuple[float, int]]:
        """(summed log probability, token count) of ``segments[t]`` after
        context ``segments[s]`` for each (t, s) of ``targets`` and
        ``sources``, equal to ``score(segments[t], segments[s])``; the
        token count is the segment length, which every segment shares.

        Only what the pairs read is mapped to ids: the distinct target
        segments, walked in full, and the distinct last order - 1 tokens
        of the sources. The histories inside each distinct tail are
        looked up once, and each pair looks up only those that reach into
        its target's head.
        """
        model = self.model
        length = len(segments[0]) if len(segments) else 0
        if length == 0 or any(len(seg) != length for seg in segments):
            raise ValueError("segments must be non-empty and of one length")
        targets = np.asarray(targets, dtype=np.int64)
        sources = np.asarray(sources, dtype=np.int64)
        distinct, tgt = _distinct_rows(segments, targets)
        ids = model._to_ids(chain.from_iterable(distinct)).reshape(len(distinct), length)
        lps = model._walk(ids)
        sums = _row_sums(lps)
        self._segment_sums = dict(zip(distinct, sums.tolist()))
        start = length - min(model.order - 1, length)
        tails, src = _distinct_rows(segments, sources, start)
        tails = model._to_ids(chain.from_iterable(tails)).reshape(len(tails), length - start)
        return zip(self._swap_heads(lps, sums, tgt, ids, tails, src).tolist(), repeat(length))


def _distinct_rows(
    segments: Sequence[Sequence[Token]], index: np.ndarray, start: int = 0
) -> tuple[list, np.ndarray]:
    """The distinct ``segments[i][start:]`` over the values i of ``index``,
    in ascending order of first i, and the row of each ``index`` entry
    among them."""
    present = np.zeros(len(segments), dtype=bool)
    present[index] = True
    at = np.flatnonzero(present)
    which: dict = {}
    row_of = np.empty(len(segments), dtype=np.int64)
    row_of[at] = [which.setdefault(tuple(segments[i][start:]), len(which)) for i in at.tolist()]
    return list(which), row_of[index]

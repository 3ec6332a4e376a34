"""Add-k smoothed n-gram language model and its perplexity backend.

This is the built-in, dependency-free scorer: deterministic, fast, and
good enough to drive the pipeline end to end. Production-accuracy
scoring plugs in through the external backend instead.

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
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from .backends import BackendCapabilities
from .corpus import Document, Token
from .errors import ConfigError

MODEL_FORMAT = "longdep-ngram"
MODEL_VERSION = 1

# Reserved unknown symbol; never produced by the tokenizers.
UNK = "\x00unk"


def _token_sort_key(tok: Token):
    # Ints sort before strings; never compares across types.
    return (0, tok) if isinstance(tok, int) else (1, tok)


class NGramModel:
    """Frozen add-k n-gram model over hashable tokens."""

    def __init__(self, order: int, k: float, tokenizer_kind: str = "whitespace"):
        if not 1 <= order <= 5:
            raise ConfigError(f"order must be in [1, 5], got {order}")
        if not (k > 0 and math.isfinite(k)):
            raise ConfigError(f"smoothing constant k must be positive, got {k}")
        self.order = order
        self.k = k
        self.tokenizer_kind = tokenizer_kind
        self.vocab: set[Token] = set()
        # history tuple (len 0..order-1) -> {next token -> count}
        self.counts: dict[tuple[Token, ...], dict[Token, int]] = {}
        # history tuple -> total continuations observed
        self.totals: dict[tuple[Token, ...], int] = {}

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def _observe(self, tokens: Sequence[Token]) -> None:
        toks = tuple(tokens)
        self.vocab.update(toks)
        for hist_len in range(self.order):
            if len(toks) <= hist_len:
                break
            windows = Counter(
                zip(*(toks[i:] for i in range(hist_len + 1)))
            )
            for window, c in windows.items():
                hist, tok = window[:hist_len], window[hist_len]
                slot = self.counts.get(hist)
                if slot is None:
                    slot = self.counts[hist] = {}
                    self.totals[hist] = 0
                slot[tok] = slot.get(tok, 0) + c
                self.totals[hist] += c

    def _lookup_history(self, history: Sequence[Token]) -> tuple[Token, ...]:
        hist = tuple(history[-(self.order - 1):]) if self.order > 1 else ()
        return tuple(t if t in self.vocab else UNK for t in hist)

    def prob(self, token: Token, history: Sequence[Token] = ()) -> float:
        """Smoothed conditional probability of ``token`` after ``history``."""
        hist = self._lookup_history(history)
        if token not in self.vocab:
            token = UNK
        slot = self.counts.get(hist)
        count = slot.get(token, 0) if slot else 0
        total = self.totals.get(hist, 0)
        return (count + self.k) / (total + self.k * (self.vocab_size + 1))

    def logprob(self, token: Token, history: Sequence[Token] = ()) -> float:
        return math.log(self.prob(token, history))

    def seq_logprob(
        self, target: Sequence[Token], context: Sequence[Token] = ()
    ) -> tuple[float, int]:
        """Sum of per-token natural log probabilities over ``target``.

        Context tokens only extend the conditioning history; they
        contribute no terms of their own.
        """
        if not target:
            raise ValueError("target must be non-empty")
        buf = list(context) + list(target)
        start = len(buf) - len(target)
        total = 0.0
        for idx in range(start, len(buf)):
            total += math.log(self.prob(buf[idx], buf[max(0, idx - self.order + 1):idx]))
        return total, len(target)

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> dict:
        entries = []
        for hist in sorted(self.counts, key=lambda h: tuple(map(_token_sort_key, h))):
            slot = self.counts[hist]
            row = [
                [tok, slot[tok]]
                for tok in sorted(slot, key=_token_sort_key)
            ]
            entries.append([list(hist), row])
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "order": self.order,
            "k": self.k,
            "tokenizer_kind": self.tokenizer_kind,
            "vocab": sorted(self.vocab, key=_token_sort_key),
            "counts": entries,
        }

    def save(self, path: str | Path) -> None:
        """Write the model as canonical JSON; identical inputs produce a
        byte-identical file."""
        payload = self.to_payload()
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        Path(path).write_text(blob + "\n", encoding="utf-8")

    @classmethod
    def from_payload(cls, payload: dict) -> "NGramModel":
        if payload.get("format") != MODEL_FORMAT:
            raise ConfigError(f"not a {MODEL_FORMAT} file")
        if payload.get("version") != MODEL_VERSION:
            raise ConfigError(f"unsupported model version {payload.get('version')!r}")
        model = cls(
            order=payload["order"],
            k=payload["k"],
            tokenizer_kind=payload.get("tokenizer_kind", "whitespace"),
        )
        model.vocab = set(payload["vocab"])
        for hist, row in payload["counts"]:
            hist_t = tuple(hist)
            slot = {tok: int(c) for tok, c in row}
            model.counts[hist_t] = slot
            model.totals[hist_t] = sum(slot.values())
        return model

    @classmethod
    def load(cls, path: str | Path) -> "NGramModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_payload(json.load(fh))


def train_ngram(
    corpus: Iterable[Document] | Iterable[Sequence[Token]],
    order: int = 3,
    k: float = 0.01,
    tokenizer_kind: str = "whitespace",
) -> NGramModel:
    """Train an add-k model from a document stream (or raw token
    sequences). Fatal on an empty corpus."""
    model = NGramModel(order=order, k=k, tokenizer_kind=tokenizer_kind)
    n_docs = 0
    for item in corpus:
        tokens = item.tokens if isinstance(item, Document) else item
        if tokens is None:
            raise ValueError("documents must be tokenized before training")
        if not tokens:
            continue
        model._observe(tokens)
        n_docs += 1
    if n_docs == 0 or not model.vocab:
        raise ConfigError("cannot train an n-gram model on an empty corpus")
    return model


# Memo entries kept by an NGramBackend before it starts over. Rows are
# scored target by target, so a small memo keeps nearly every hit while
# memory stays flat however many documents pass through.
UNCOND_MEMO_SIZE = 1024


class NGramBackend:
    """Perplexity backend over a trained NGramModel.

    Conditioning with an n-gram window only changes the first order-1
    target tokens, so a conditional score is a memoized unconditional
    sum with its head terms swapped for ones that see the context. The
    memo holds at most ``UNCOND_MEMO_SIZE`` targets and is cleared when
    full. Memoized paths are always taken, which keeps repeated calls
    bit-identical. An optional separator token can be inserted between
    context and target; by default they are concatenated directly.
    """

    def __init__(self, model: NGramModel, context_separator: Token | None = None):
        self.model = model
        self.context_separator = context_separator
        # target tuple -> (logprob_sum, per-token logprobs of the head)
        self._uncond: dict[tuple[Token, ...], tuple[float, tuple[float, ...]]] = {}

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(max_context_tokens=1 << 22, deterministic=True)

    def _uncond_entry(self, target: tuple[Token, ...]) -> tuple[float, tuple[float, ...]]:
        entry = self._uncond.get(target)
        if entry is not None:
            return entry
        model = self.model
        head_n = min(model.order - 1, len(target))
        head_lps = []
        total = 0.0
        for idx, tok in enumerate(target):
            lp = math.log(model.prob(tok, target[max(0, idx - model.order + 1):idx]))
            if idx < head_n:
                head_lps.append(lp)
            total += lp
        entry = (total, tuple(head_lps))
        if len(self._uncond) >= UNCOND_MEMO_SIZE:
            self._uncond.clear()
        self._uncond[target] = entry
        return entry

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
        base, head_lps = self._uncond_entry(tgt)
        if not context:
            return base, len(tgt)
        ctx = tuple(context)
        if self.context_separator is not None:
            ctx = ctx + (self.context_separator,)
        model = self.model
        window = model.order - 1
        ctx_tail = ctx[-window:] if window else ()
        buf = ctx_tail + tgt[: len(head_lps)]
        head_sum = 0.0
        for idx in range(len(ctx_tail), len(buf)):
            head_sum += math.log(model.prob(buf[idx], buf[max(0, idx - model.order + 1):idx]))
        adjusted = base
        for lp in head_lps:
            adjusted -= lp
        adjusted += head_sum
        return adjusted, len(tgt)

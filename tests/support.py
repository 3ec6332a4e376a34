"""Shared test doubles and the generated-case invariant checks.

The check_* functions each draw ``n_cases`` pseudo-random cases from a
seeded generator and assert one documented invariant over every case.
They are plain functions, not tests, so the unit suite and the
acceptance gate can both run them with an explicit case count.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import math
import os
import socket
import statistics
import threading
import time
from itertools import islice, repeat

import numpy as np

from longdep.backends import PerplexityBackend, ppl, ppl_given
from longdep.bench import SynthSpec, accuracy_at_k
from longdep.config import REFERENCE_PROFILE, resolve_config
from longdep.corpus import Document, SegmentGrid, segment
from longdep.errors import BackendError, DocumentTooShort
from longdep.heatmap import MASK_COLOR, render_heatmap
from longdep.jsonio import canonical_dumps, fingerprint
from longdep.lds import (
    LdsConfig,
    PairColumns,
    ScoreReport,
    ddi,
    derive_seed,
    dsp,
    dst,
    lds_pair,
    pair_count,
    score_document,
)
from longdep.ngram import NGramModel, train_ngram
from longdep.pipeline import DocumentOutcome, build_manifest, retained_ids

# A generated corpus above smoke size, with all four kinds and documents
# drawn from the shorts pool; the sha256 of its JSONL lines
# (``corpus_lines``), and of the order-3, k=0.01 model trained on it.
# Both were recorded while the generator and the trainer still made each
# token in a Python loop.
PINNED_SPEC = SynthSpec(n_positive=4, n_negative=4, n_segments=64)
PINNED_CORPUS_SHA256 = "92048cbe3fa26ec02a8e9c2cfbaae4533fa7516e2e1c0f99c309f49a22623573"
PINNED_MODEL_SHA256 = "2f43e361c95d08324f67c40863886e9cd2499c2e109c19ac18504054646bc375"


def corpus_lines(docs) -> list[bytes]:
    """Generated documents as JSONL lines, each token joined by a space:
    the form the benchmark writes its corpora in."""
    return [
        json.dumps({"id": d.id, "source": d.source, "text": " ".join(d.tokens)},
                   sort_keys=True, ensure_ascii=False).encode("utf-8")
        for d in docs
    ]


# -- test doubles ----------------------------------------------------------


class HashBackend:
    """Deterministic pseudo-random perplexities keyed on content.

    Every (target, context) pair maps to a stable per-token log
    probability in [-3, -0.5], so perplexities land in [e^0.5, e^3] and
    identical inputs always score identically, across runs and machines.
    """

    def __init__(self, salt: str = ""):
        self.salt = salt

    def score(self, target, context=None):
        digest = hashlib.sha256()
        digest.update(self.salt.encode("utf-8"))
        for tok in context or ():
            digest.update(str(tok).encode("utf-8"))
            digest.update(b"\x1f")
        digest.update(b"\x1e")
        for tok in target:
            digest.update(str(tok).encode("utf-8"))
            digest.update(b"\x1f")
        unit = int.from_bytes(digest.digest()[:8], "big") / float(1 << 64)
        rate = 0.5 + 2.5 * unit
        return -rate * len(target), len(target)


class CountingBackend:
    """Wrapper that counts calls, to check call-count contracts (N
    unconditional + T conditional per document). It has no
    ``score_pairs``, so lds scores through it pair by pair."""

    def __init__(self, inner: PerplexityBackend):
        self.inner = inner
        self.unconditional_calls = 0
        self.conditional_calls = 0

    @property
    def total_calls(self) -> int:
        return self.unconditional_calls + self.conditional_calls

    def score(self, target, context=None):
        if context:
            self.conditional_calls += 1
        else:
            self.unconditional_calls += 1
        return self.inner.score(target, context)


class ScriptedBackend:
    """Fixed perplexities looked up by (target tokens, context tokens).

    The table maps (tuple(target), tuple(context) | None) to a
    perplexity value; anything unscripted raises KeyError.
    """

    def __init__(self, table: dict):
        self.table = dict(table)

    def score(self, target, context=None):
        key = (tuple(target), tuple(context) if context else None)
        value = self.table[key]
        n = len(target)
        return -math.log(value) * n, n


class FailingBackend:
    """Delegates to an inner backend but fails whenever a poison token
    appears in the target; drives the pipeline's failed-document path."""

    def __init__(self, inner, poison: str = "BOOM"):
        self.inner = inner
        self.poison = poison

    def score(self, target, context=None):
        if self.poison in target:
            raise BackendError("poisoned segment")
        return self.inner.score(target, context)


class DyingScorer:
    """A TCP scorer that answers its first ``answers`` requests and reads
    the rest without answering. ``kill`` closes its listener and shuts
    every connection, so each later connect is refused."""

    def __init__(self, answers):
        self.answers = answers
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.endpoint = f"tcp://127.0.0.1:{self.listener.getsockname()[1]}"
        self.conns = []
        self.seen = threading.Semaphore(0)
        self.dead = threading.Event()
        self.acceptor = threading.Thread(target=self._accept, daemon=True)
        self.acceptor.start()

    def _accept(self):
        while not self.dead.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            self.conns.append(conn)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()
        self.listener.close()

    def _serve(self, conn):
        # A client may reset the connection that ``kill`` shut. The stream
        # is binary: a text stream drops the lines it has read ahead, the
        # rest of a window, when it is written to.
        with contextlib.suppress(OSError), conn.makefile("rwb") as stream:
            for line in stream:
                req = json.loads(line)
                if self.answers > 0:
                    self.answers -= 1
                    out = {"req_id": req["req_id"], "logprob_sum": -1.0, "token_count": 1}
                    stream.write(json.dumps(out).encode("utf-8") + b"\n")
                    stream.flush()
                self.seen.release()

    def kill(self):
        self.dead.set()
        self.acceptor.join()
        for conn in self.conns:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)


def process_alive(pid: int, wait_s: float = 5.0) -> bool:
    """Whether process ``pid`` still runs, not counting a zombie, after
    waiting up to ``wait_s`` for it to end."""
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return False
        if state in ("Z", "X"):
            return False
        time.sleep(0.05)
    return True


class _FullFile:
    """A file open for writing that takes ``room`` more bytes, then fails
    every write as a full disk does."""

    def __init__(self, handle, room: int):
        self._handle = handle
        self._room = room

    def write(self, data):
        taken = data[: self._room]
        self._handle.write(taken)
        self._room -= len(taken)
        if len(taken) < len(data):
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


def fill_disk_after(monkeypatch, room: int, name: str) -> None:
    """From now on, the artifact writers of ``longdep`` fill the disk
    after ``room`` bytes of a file named ``name`` or ``name.partial``."""

    def opener(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        if "w" in mode and os.path.basename(file) in (name, name + ".partial"):
            return _FullFile(handle, room)
        return handle

    for module in ("longdep.cli", "longdep.heatmap", "longdep.jsonio", "longdep.ngram"):
        monkeypatch.setattr(f"{module}.open", opener, raising=False)


def make_grid(
    rng: np.random.Generator,
    doc_id: str = "doc",
    n_segments: int = 4,
    segment_len: int = 3,
    vocab: int = 50,
    source: str = "",
) -> SegmentGrid:
    """Random token grid built directly, bypassing tokenization."""
    tokens = [f"t{v:02d}" for v in rng.integers(0, vocab, size=n_segments * segment_len)]
    segments = tuple(
        tuple(tokens[i * segment_len : (i + 1) * segment_len]) for i in range(n_segments)
    )
    return SegmentGrid(doc_id=doc_id, segment_len=segment_len, segments=segments, source=source)


def make_reports(
    rng: np.random.Generator,
    n: int,
    sources: tuple[str, ...] = ("web", "book"),
    config_hash: str = "cfg0",
) -> list[ScoreReport]:
    """Synthetic scored reports with random scores and mixed sources."""
    out = []
    for i in range(n):
        out.append(
            ScoreReport(
                doc_id=f"d{i:04d}",
                n_segments=8,
                mode="exact",
                lds=float(rng.uniform(0, 5)),
                pair_count=28,
                gated_count=int(rng.integers(0, 29)),
                config_hash=config_hash,
                source=sources[int(rng.integers(0, len(sources)))],
            )
        )
    return out


# -- the per-pair reference scorer -------------------------------------------
#
# The per-pair loop ``score_document`` ran before its array path, kept as
# it was, so tests can compare the two bit for bit. It asks for the
# unconditional perplexity of every segment, not only of the targets.


def reference_pair_from_linear(linear: int) -> tuple[int, int]:
    # Pairs enumerate target-major: linear = t*(t-1)/2 + s with s < t.
    t = (1 + math.isqrt(1 + 8 * linear)) // 2
    while t * (t - 1) // 2 > linear:
        t -= 1
    while (t + 1) * t // 2 <= linear:
        t += 1
    return t, linear - t * (t - 1) // 2


def reference_sample_pairs(n_segments: int, sample_size: int, seed: int):
    total = pair_count(n_segments)
    if sample_size >= total:
        return tuple((t, s) for t in range(1, n_segments) for s in range(t))
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = rng.choice(total, size=sample_size, replace=False)
    chosen.sort()
    return tuple(reference_pair_from_linear(int(ix)) for ix in chosen)


def reference_score_document(backend, grid: SegmentGrid, cfg: LdsConfig,
                             keep_pairs: bool = True) -> ScoreReport:
    n = grid.n_segments
    if cfg.mode == "exact":
        rows = {t: list(range(t)) for t in range(1, n)}
    else:
        rows = {}
        for target, source in reference_sample_pairs(
            n, cfg.sample_size, derive_seed(cfg.seed, grid.doc_id)
        ):
            rows.setdefault(target, []).append(source)
    order = sorted(rows)
    conditional = iter([
        ppl_given(backend, grid.segments[t], grid.segments[s]) for t in order for s in rows[t]
    ])
    unconditional = [ppl(backend, seg) for seg in grid.segments]
    total = 0.0
    gated_count = 0
    n_pairs = 0
    triples: list[tuple[int, int, float]] = []
    dsp_rows: list[tuple[int, float]] = []
    for target in sorted(rows):
        sources = rows[target]
        u = unconditional[target]
        dst_row = [dst(u, value) for value in islice(conditional, len(sources))]
        dsp_value = dsp(dst_row)
        for source, dst_value in zip(sources, dst_row):
            ddi_value = ddi(target, source, n)
            pairwise = lds_pair(dst_value, ddi_value, dsp_value, cfg)
            if dst_value > cfg.tau:
                total += pairwise
                gated_count += 1
            n_pairs += 1
        if keep_pairs:
            triples.extend(zip(repeat(target), sources, dst_row))
            dsp_rows.append((target, dsp_value))
    return ScoreReport(
        doc_id=grid.doc_id,
        n_segments=n,
        mode=cfg.mode,
        lds=total,
        pair_count=n_pairs,
        gated_count=gated_count,
        config_hash=cfg.fingerprint(),
        source=grid.source,
        columns=pair_columns(triples, dsp_rows) if keep_pairs else None,
        lds_config=cfg if keep_pairs else None,
    )


def pair_columns(triples, dsp_rows) -> PairColumns:
    """``PairColumns`` of (target, source, dst) triples and (target, dsp)
    rows."""
    columns = (*(zip(*triples) if triples else [()] * 3),
               *(zip(*dsp_rows) if dsp_rows else [()] * 2))
    dtypes = (np.int64, np.int64, np.float64, np.int64, np.float64)
    return PairColumns(*map(np.array, columns, dtypes))


def _tiny_model(rng: np.random.Generator, vocab: int = 12, n_tokens: int = 400) -> NGramModel:
    tokens = [f"v{v}" for v in rng.integers(0, vocab, size=n_tokens)]
    return train_ngram([tokens], order=3, k=0.01)


# -- corpus invariants -----------------------------------------------------


def check_segment_concat_prefix(n_cases: int = 1000, seed: int = 0) -> None:
    """Concatenating grid segments reproduces a prefix of the truncated
    token sequence exactly: no reordering, no gaps."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        seg_len = int(rng.integers(1, 9))
        truncate = int(rng.integers(2 * seg_len, 12 * seg_len))
        length = int(rng.integers(2 * seg_len, 14 * seg_len))
        tokens = tuple(int(v) for v in rng.integers(0, 40, size=length))
        doc = Document(id="d", source="s", text="", tokens=tokens)
        grid = segment(doc, seg_len, truncate)
        flat = tuple(tok for seg in grid.segments for tok in seg)
        assert flat == tokens[: len(flat)], "segments do not concatenate to a prefix"


def check_segment_deterministic(n_cases: int = 1000, seed: int = 1) -> None:
    """Identical (tokens, L, M) produce identical grids."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        seg_len = int(rng.integers(1, 9))
        truncate = int(rng.integers(2 * seg_len, 12 * seg_len))
        length = int(rng.integers(2 * seg_len, 14 * seg_len))
        tokens = tuple(int(v) for v in rng.integers(0, 40, size=length))
        doc = Document(id="d", source="s", text="", tokens=tokens)
        assert segment(doc, seg_len, truncate) == segment(doc, seg_len, truncate)


def check_segment_bounds(n_cases: int = 1000, seed: int = 2) -> None:
    """N*L <= min(len(tokens), M) < (N+1)*L for every valid input."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        seg_len = int(rng.integers(1, 9))
        truncate = int(rng.integers(2 * seg_len, 12 * seg_len))
        length = int(rng.integers(1, 14 * seg_len))
        tokens = tuple(int(v) for v in rng.integers(0, 40, size=length))
        doc = Document(id="d", source="s", text="", tokens=tokens)
        kept = min(length, truncate)
        try:
            grid = segment(doc, seg_len, truncate)
        except DocumentTooShort:
            assert kept // seg_len < 2
            continue
        n = grid.n_segments
        assert n * seg_len <= kept < (n + 1) * seg_len


# -- scorer invariants -------------------------------------------------------


def check_ppl_positive(n_cases: int = 1000, seed: int = 3) -> None:
    """ppl is finite and strictly positive; a backend whose every
    per-token probability is 1 yields ppl of exactly 1."""
    rng = np.random.default_rng(seed)
    model = _tiny_model(rng)

    class FlatBackend:
        def score(self, target, context=None):
            return 0.0, len(target)

    assert ppl(FlatBackend(), ("x", "y")) == 1.0
    hash_backend = HashBackend()
    from longdep.ngram import NGramBackend

    ngram_backend = NGramBackend(model)
    for _ in range(n_cases):
        length = int(rng.integers(1, 7))
        target = tuple(f"v{v}" for v in rng.integers(0, 14, size=length))
        for backend in (hash_backend, ngram_backend):
            value = ppl(backend, target)
            assert math.isfinite(value) and value > 0.0


def check_empty_context_identity(n_cases: int = 1000, seed: int = 4) -> None:
    """ppl_given(t, []) equals ppl(t) bit for bit."""
    rng = np.random.default_rng(seed)
    from longdep.ngram import NGramBackend

    backends = [HashBackend(), NGramBackend(_tiny_model(rng))]
    for _ in range(n_cases):
        length = int(rng.integers(1, 7))
        target = tuple(f"v{v}" for v in rng.integers(0, 14, size=length))
        for backend in backends:
            assert ppl_given(backend, target, ()) == ppl(backend, target)


def check_ngram_normalization(n_cases: int = 1000, seed: int = 5) -> None:
    """Conditional probabilities sum to 1 +/- 1e-9 over vocab plus the
    unknown symbol, for random histories of every length."""
    from longdep.ngram import UNK

    rng = np.random.default_rng(seed)
    models = [_tiny_model(rng, vocab=int(rng.integers(4, 16))) for _ in range(10)]
    for _ in range(n_cases):
        model = models[int(rng.integers(0, len(models)))]
        hist_len = int(rng.integers(0, model.order))
        history = tuple(f"v{v}" for v in rng.integers(0, 20, size=hist_len))
        total = sum(model.prob(tok, history) for tok in model.vocab)
        total += model.prob(UNK, history)
        assert abs(total - 1.0) <= 1e-9, f"conditional mass {total} for {history}"


def check_backend_deterministic(n_cases: int = 1000, seed: int = 6) -> None:
    """The built-in backend is bit-deterministic: same model file, same
    scores, including across a save/load round trip."""
    import tempfile

    from longdep.ngram import NGramBackend, NGramModel

    rng = np.random.default_rng(seed)
    model = _tiny_model(rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        model.save(path)
        first = NGramBackend(NGramModel.load(path))
        second = NGramBackend(NGramModel.load(path))
        for _ in range(n_cases):
            t_len = int(rng.integers(1, 6))
            c_len = int(rng.integers(0, 6))
            target = tuple(f"v{v}" for v in rng.integers(0, 14, size=t_len))
            context = tuple(f"v{v}" for v in rng.integers(0, 14, size=c_len))
            assert first.score(target, context) == second.score(target, context)
            assert first.score(target, context) == first.score(target, context)


# -- scoring-math invariants -------------------------------------------------


def check_score_bounds(n_cases: int = 1000, seed: int = 7) -> None:
    """ddi in (0, 1]; dsp in [0, 1]; dst < 1; the gate is boolean."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        n = int(rng.integers(2, 40))
        target = int(rng.integers(1, n))
        source = int(rng.integers(0, target))
        d = ddi(target, source, n)
        assert 0.0 < d <= 1.0

        row = rng.uniform(-3, 3, size=int(rng.integers(1, 12))).tolist()
        s = dsp(row)
        assert 0.0 <= s <= 1.0

        unconditional = float(rng.uniform(0.01, 50))
        conditional = float(rng.uniform(0.01, 50))
        assert dst(unconditional, conditional) < 1.0

    grid = make_grid(np.random.default_rng(seed), n_segments=5)
    report = score_document(
        HashBackend(), grid, LdsConfig(segment_len=3, truncate_len=15, mode="exact")
    )
    assert all(isinstance(p.gated, bool) for p in report.pairs)


def check_repetition_annihilation(n_cases: int = 1000, seed: int = 8) -> None:
    """A document whose segments are all identical has uniform dst rows,
    so the multiplicative variant scores 0 within 1e-9."""
    rng = np.random.default_rng(seed)
    backend = HashBackend()
    for _ in range(n_cases):
        seg_len = int(rng.integers(1, 5))
        n = int(rng.integers(2, 11))
        seg = tuple(f"t{v:02d}" for v in rng.integers(0, 30, size=seg_len))
        grid = SegmentGrid(doc_id="rep", segment_len=seg_len, segments=(seg,) * n)
        cfg = LdsConfig(
            segment_len=seg_len, truncate_len=2 * seg_len, mode="exact", tau=0.0
        )
        report = score_document(backend, grid, cfg, keep_pairs=False)
        assert abs(report.lds) <= 1e-9, f"repetition leaked lds={report.lds}"


def check_ranking_invariance(n_cases: int = 1000, seed: int = 9) -> None:
    """Scaling alpha and beta jointly by c > 0 scales every score by c
    and leaves the induced ranking unchanged."""
    rng = np.random.default_rng(seed)
    backend = HashBackend()
    docs_per_batch = 8
    batches = max(1, n_cases // docs_per_batch)
    for variant in ("multiplicative", "none"):
        for _ in range(batches):
            c = float(rng.uniform(0.1, 10))
            base_cfg = LdsConfig(
                segment_len=2, truncate_len=12, mode="exact", dsp_variant=variant
            )
            scaled_cfg = base_cfg.replace(alpha=base_cfg.alpha * c, beta=base_cfg.beta * c)
            base_scores = []
            scaled_scores = []
            for d in range(docs_per_batch):
                grid = make_grid(rng, doc_id=f"d{d}", n_segments=6, segment_len=2)
                base_scores.append(score_document(backend, grid, base_cfg, keep_pairs=False).lds)
                scaled_scores.append(
                    score_document(backend, grid, scaled_cfg, keep_pairs=False).lds
                )
            for b, s in zip(base_scores, scaled_scores):
                assert math.isclose(s, c * b, rel_tol=1e-9, abs_tol=1e-12)
            assert list(np.argsort(base_scores)) == list(np.argsort(scaled_scores))


def check_ddi_monotonic(n_cases: int = 1000, seed: int = 10) -> None:
    """For a fixed target, ddi strictly decreases as the source index
    rises toward the target."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        n = int(rng.integers(3, 60))
        target = int(rng.integers(2, n))
        row = [ddi(target, source, n) for source in range(target)]
        assert all(a > b for a, b in zip(row, row[1:]))


def check_dsp_shift_invariance(n_cases: int = 1000, seed: int = 11) -> None:
    """Adding a constant to every row entry leaves dsp bit-identical
    whenever the additions are exact, integers being the clean case."""
    assert dsp((1000.0, 999.0, 998.0)) == dsp((2.0, 1.0, 0.0))
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        m = int(rng.integers(1, 10))
        row = [float(v) for v in rng.integers(-50, 51, size=m)]
        shift = float(rng.integers(-(10**6), 10**6))
        shifted = [v + shift for v in row]
        assert dsp(row) == dsp(shifted)


def check_exhaustive_equals_exact(n_cases: int = 1000, seed: int = 12) -> None:
    """A sample that covers every pair reproduces exact mode bit for bit."""
    rng = np.random.default_rng(seed)
    backend = HashBackend()
    for _ in range(n_cases):
        n = int(rng.integers(2, 9))
        seg_len = int(rng.integers(1, 4))
        grid = make_grid(rng, n_segments=n, segment_len=seg_len)
        total = pair_count(n)
        cfg = LdsConfig(
            segment_len=seg_len,
            truncate_len=2 * seg_len,
            mode="sampled",
            sample_size=total + int(rng.integers(0, 5)),
            seed=int(rng.integers(0, 2**31)),
        )
        sampled = score_document(backend, grid, cfg.replace(seed=int(rng.integers(0, 2**31))))
        exact = score_document(backend, grid, cfg.replace(mode="exact"))
        assert sampled.lds == exact.lds
        assert sampled.pair_count == exact.pair_count == total
        assert sampled.gated_count == exact.gated_count
        assert [p[:7] for p in sampled.pairs] == [p[:7] for p in exact.pairs]


def check_gate_semantics(n_cases: int = 1000, seed: int = 13) -> None:
    """A threshold above every dst forces the score to exactly zero;
    dst < 1 makes tau = 1 such a threshold."""
    rng = np.random.default_rng(seed)
    backend = HashBackend()
    for _ in range(n_cases):
        n = int(rng.integers(2, 9))
        grid = make_grid(rng, n_segments=n, segment_len=2)
        cfg = LdsConfig(segment_len=2, truncate_len=4, mode="exact", tau=1.0)
        report = score_document(backend, grid, cfg, keep_pairs=False)
        assert report.lds == 0.0
        assert report.gated_count == 0


# -- pipeline invariants -----------------------------------------------------


def check_selection_mean_ordering(n_cases: int = 1000, seed: int = 14) -> None:
    """Top-fraction mean is never below the random-subset mean of the
    same size, per source and pooled."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        reports = make_reports(rng, int(rng.integers(2, 30)))
        fraction = float(rng.uniform(0.1, 1.0))
        manifest = build_manifest(
            reports, (), fraction, "prolong", seed=int(rng.integers(0, 2**31))
        )
        pooled = manifest["stats"]
        assert pooled["prolong"]["mean"] >= pooled["random"]["mean"] - 1e-12
        for entry in manifest["sources"]:
            stats = entry["stats"]
            assert stats["prolong"]["mean"] >= stats["random"]["mean"] - 1e-12


def check_manifest_reproducible(n_cases: int = 1000, seed: int = 15) -> None:
    """(reports, config, seed) determine the manifest byte for byte."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        reports = make_reports(rng, int(rng.integers(2, 25)))
        fraction = float(rng.uniform(0.1, 1.0))
        strategy = ("prolong", "random", "full")[int(rng.integers(0, 3))]
        sel_seed = int(rng.integers(0, 2**31))
        first = build_manifest(reports, (), fraction, strategy, seed=sel_seed)
        second = build_manifest(list(reports), (), fraction, strategy, seed=sel_seed)
        assert canonical_dumps(first) == canonical_dumps(second)


def check_manifest_partition(n_cases: int = 1000, seed: int = 16) -> None:
    """Every input document lands in exactly one of retained, rejected,
    excluded, failed."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        reports = make_reports(rng, int(rng.integers(2, 20)))
        outcomes = [
            DocumentOutcome(r.doc_id, r.source, "scored", report=r) for r in reports
        ]
        extra = int(rng.integers(0, 5))
        for i in range(extra):
            status = "excluded" if rng.random() < 0.5 else "failed"
            outcomes.append(
                DocumentOutcome(f"x{i:03d}", "web", status, reason="injected")
            )
        manifest = build_manifest(
            reports, outcomes, 0.5, "prolong", seed=int(rng.integers(0, 2**31))
        )
        retained = set(retained_ids(manifest))
        ranked = {d["doc_id"] for e in manifest["sources"] for d in e["documents"]}
        rejected = ranked - retained
        excluded = {row["doc_id"] for row in manifest["excluded"]}
        failed = {row["doc_id"] for row in manifest["failed"]}
        buckets = (retained, rejected, excluded, failed)
        everything = {o.doc_id for o in outcomes}
        assert set().union(*buckets) == everything
        for i, a in enumerate(buckets):
            for b in buckets[i + 1 :]:
                assert not (a & b), "document in two buckets"


# -- heatmap invariants --------------------------------------------------------


def pair_report(triples, n_segments: int, doc_id: str = "d", config_hash: str = "h",
                dsp_value: float = 0.5) -> ScoreReport:
    """A report holding the pair columns ``triples`` of (target, source,
    dst), with a dsp row of ``dsp_value`` for each target, scored under
    the reference ``LdsConfig``; its row fields are placeholders."""
    targets = sorted({target for target, _, _ in triples})
    return ScoreReport(
        doc_id=doc_id, n_segments=n_segments, mode="exact", lds=0.0,
        pair_count=len(triples), gated_count=0, config_hash=config_hash,
        columns=pair_columns(triples, [(t, dsp_value) for t in targets]),
        lds_config=LdsConfig(),
    )


def read_csv_rows(path) -> list[tuple[int, int, float]]:
    """A heatmap CSV's (target, source, value) rows, in file order."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    body = lines[2:] if lines[0].startswith("# config=") else lines[1:]
    return [(int(i), int(j), float(v)) for i, j, v in (line.split(",") for line in body)]


def check_csv_roundtrip(n_cases: int = 1000, seed: int = 17, tmp_dir: str | None = None) -> None:
    """Parsing the CSV reproduces the written values exactly."""
    import tempfile

    rng = np.random.default_rng(seed)
    values = []
    for _ in range(n_cases):
        kind = rng.integers(0, 4)
        if kind == 0:
            values.append(float(rng.uniform(-1, 1)))
        elif kind == 1:
            values.append(float(rng.uniform(-1, 1)) * 10.0 ** int(rng.integers(-200, 200)))
        elif kind == 2:
            values.append(float(np.nextafter(rng.uniform(-1, 1), 0)))
        else:
            values.append(0.1 + 0.2 if rng.random() < 0.5 else -0.0)
    n = len(values) + 1
    report = pair_report([(i + 1, 0, v) for i, v in enumerate(values)], n)
    with tempfile.TemporaryDirectory(dir=tmp_dir) as tmp:
        path = os.path.join(tmp, "roundtrip.csv")
        render_heatmap(report, os.path.join(tmp, "roundtrip.ppm"), path, value="dst")
        rows = read_csv_rows(path)
    assert len(rows) == len(report.pairs)
    for (i, j, v), pair in zip(rows, report.pairs):
        assert (i, j) == (pair.target, pair.source)
        assert v == pair.dst or (math.isnan(v) and math.isnan(pair.dst)), (v, pair.dst)
    assert n - 1 == len(rows)


def check_ppm_geometry(n_cases: int = 1000, seed: int = 18, tmp_dir: str | None = None) -> None:
    """Image side length is n_segments * cell_size and uncovered cells
    carry the reserved mask color."""
    import tempfile

    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory(dir=tmp_dir) as tmp:
        path = os.path.join(tmp, "probe.ppm")
        for _ in range(n_cases):
            n = int(rng.integers(2, 8))
            cell = int(rng.integers(1, 4))
            triples = [
                (t, s, float(rng.uniform(-1, 1)))
                for t in range(1, n)
                for s in range(t)
                if rng.random() < 0.7
            ]
            report = pair_report(triples or [(1, 0, 0.5)], n)
            render_heatmap(report, path, os.path.join(tmp, "probe.csv"), cell_size=cell)
            blob = open(path, "rb").read()
            magic, comment, dims, maxval, raster = blob.split(b"\n", 4)
            assert magic == b"P6"
            side = n * cell
            assert dims == f"{side} {side}".encode()
            assert maxval == b"255"
            assert len(raster) == side * side * 3
            # Top-right corner is above the diagonal, always masked.
            corner = raster[(side - 1) * 3 : side * 3]
            assert tuple(corner) == MASK_COLOR


# -- bench invariants -----------------------------------------------------------


def check_accuracy_permutation_invariance(n_cases: int = 1000, seed: int = 19) -> None:
    """Document order never changes accuracy; ranking is by score with a
    deterministic id tie-break."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        n = int(rng.integers(4, 40))
        reports = make_reports(rng, n)
        labels = {r.doc_id: int(rng.random() < 0.5) for r in reports}
        if sum(labels.values()) == 0:
            labels[reports[0].doc_id] = 1
        base = accuracy_at_k(reports, labels)
        perm = [reports[int(i)] for i in rng.permutation(n)]
        assert accuracy_at_k(perm, labels) == base


# -- config invariants -----------------------------------------------------------


_FLAG_POOLS = {
    "segment_len": (16, 32, 128),
    "truncate_len": (1024, 4096, 32768),
    "tau": (0.0, 0.05, 0.2),
    "alpha": (0.5, 1.0, 2.0),
    "beta": (0.5, 1.0, 2.0),
    "gamma": (0.5, 1.0, 2.0),
    "mode": ("exact", "sampled"),
    "sample_size": (100, 5000),
    "dsp_variant": ("multiplicative", "additive", "none"),
    "seed": (0, 7, 123),
    "fraction": (0.25, 0.5, 1.0),
    "workers": (1, 2, 8),
    "tokenizer": ("whitespace", "byte"),
    "input_format": ("jsonl", "plain-dir"),
    "order": (1, 2, 3),
    "k": (0.01, 0.5),
}


def check_config_precedence(n_cases: int = 1000, seed: int = 20, tmp_dir: str | None = None) -> None:
    """Flags override the config file, the file overrides defaults, and
    untouched keys keep their defaults."""
    import json
    import tempfile

    rng = np.random.default_rng(seed)
    keys = list(_FLAG_POOLS)
    with tempfile.TemporaryDirectory(dir=tmp_dir) as tmp:
        path = os.path.join(tmp, "conf.json")
        for _ in range(n_cases):
            file_cfg = {
                k: _FLAG_POOLS[k][int(rng.integers(0, len(_FLAG_POOLS[k])))]
                for k in keys
                if rng.random() < 0.4
            }
            flags = {
                k: _FLAG_POOLS[k][int(rng.integers(0, len(_FLAG_POOLS[k])))]
                for k in keys
                if rng.random() < 0.4
            }
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(file_cfg, handle)
            rc = resolve_config(flags, path)
            merged = rc.to_dict()
            for key in keys:
                expect = flags.get(key, file_cfg.get(key, REFERENCE_PROFILE[key]))
                assert merged[key] == expect, (key, merged[key], expect)


def check_fingerprint_stability(n_cases: int = 1000, seed: int = 21) -> None:
    """Hashes ignore dict key order and change when any value changes."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        items = {
            f"k{i}": float(rng.uniform(-5, 5)) for i in range(int(rng.integers(1, 10)))
        }
        shuffled = {k: items[k] for k in rng.permutation(list(items))}
        assert fingerprint(items) == fingerprint(shuffled)
        mutated = dict(items)
        victim = list(mutated)[int(rng.integers(0, len(mutated)))]
        mutated[victim] = mutated[victim] + 1.0
        assert fingerprint(mutated) != fingerprint(items)


#: Name -> callable registry the acceptance gate iterates over.
PROPERTY_CHECKS = {
    "segment concat prefix": check_segment_concat_prefix,
    "segment deterministic": check_segment_deterministic,
    "segment bounds": check_segment_bounds,
    "ppl positive": check_ppl_positive,
    "empty context identity": check_empty_context_identity,
    "ngram normalization": check_ngram_normalization,
    "backend deterministic": check_backend_deterministic,
    "score bounds": check_score_bounds,
    "repetition annihilation": check_repetition_annihilation,
    "ranking invariance": check_ranking_invariance,
    "ddi monotonic": check_ddi_monotonic,
    "dsp shift invariance": check_dsp_shift_invariance,
    "exhaustive equals exact": check_exhaustive_equals_exact,
    "gate semantics": check_gate_semantics,
    "selection mean ordering": check_selection_mean_ordering,
    "manifest reproducible": check_manifest_reproducible,
    "manifest partition": check_manifest_partition,
    "csv roundtrip": check_csv_roundtrip,
    "ppm geometry": check_ppm_geometry,
    "accuracy permutation invariance": check_accuracy_permutation_invariance,
    "config precedence": check_config_precedence,
    "fingerprint stability": check_fingerprint_stability,
}

"""Per-layer tracing installed from outside the program.

The tracer wraps public functions, methods and the backend classes of
``longdep`` by patching the names the callers look up, so ``src/`` stays
untouched. Calls made once per pair or per row are aggregated (count and
a list of durations) rather than recorded as spans, which keeps the
overhead of exact scoring small; commands and documents get spans.

A wrapped name that no longer exists (renamed or deleted by a later
change) is recorded as missing, and every metric that needs it reports
``unmeasured`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict

clock = time.perf_counter

# (module, attribute path, key). The attribute is replaced where callers
# look it up: e.g. ``longdep.cli`` imported ``score_corpus`` by name.
TARGETS = (
    ("longdep.cli", "cmd_score", "cli.score"),
    ("longdep.cli", "cmd_select", "cli.select"),
    ("longdep.cli", "cmd_train_ngram", "cli.train"),
    ("longdep.cli", "train_ngram", "ngram.train"),
    ("longdep.cli", "ingest", "corpus.ingest"),
    ("longdep.cli", "score_corpus", "pipeline.score_corpus"),
    ("longdep.cli", "build_manifest", "pipeline.build_manifest"),
    ("longdep.cli", "write_canonical", "jsonio.write"),
    ("longdep.cli", "write_meta_sidecar", "jsonio.write_meta"),
    ("longdep.ngram", "NGramModel.load", "ngram.load"),
    ("longdep.ngram", "NGramBackend.score", "ngram.score"),
    ("longdep.backends", "ExternalBackend.score", "backends.external_score"),
    ("longdep.backends", "ExternalBackend.connect_check", "backends.connect"),
    ("longdep.backends", "_StdioConnection.round_trip", "backends.round_trip"),
    ("longdep.backends", "PplCache.lookup", "backends.cache_lookup"),
    ("longdep.backends", "ppl", "backends.ppl"),
    ("longdep.lds", "ppl_given", "backends.ppl_given"),
    ("longdep.lds", "sample_pairs", "lds.sample_pairs"),
    ("longdep.lds", "dsp", "lds.dsp"),
    ("longdep.pipeline", "score_document", "lds.score_document"),
    ("longdep.pipeline", "_score_one", "pipeline.score_one"),
    ("longdep.pipeline", "tokenize", "corpus.tokenize"),
    ("longdep.pipeline", "segment", "corpus.segment"),
)

BACKEND_KEYS = ("ngram.score", "backends.external_score")

# (name, unit, keys it needs, the end-to-end metric and workloads the
# layer should move). Values are per CLI process.
E2E_PAIR = "ref_us_per_pair on exact-pairs and sampled-ngram"
LAYER_METRICS = (
    ("ngram.cond_s", "s", ("ngram.score",), E2E_PAIR),
    ("ngram.cond_calls", "count", ("ngram.score",), E2E_PAIR),
    ("ngram.uncond_s", "s", ("ngram.score",), "docs_per_ref_s, peak_rss_mb on sampled-ngram"),
    ("ngram.uncond_calls", "count", ("ngram.score",),
     "docs_per_ref_s, peak_rss_mb on sampled-ngram"),
    ("ngram.load_s", "s", ("ngram.load",), "docs_per_ref_s on the n-gram workloads"),
    ("ngram.train_s", "s", ("ngram.train",), "setup_s on the n-gram workloads"),
    ("backends.ppl_cache_hit_ratio", "ratio", ("backends.cache_lookup",),
     "docs_per_ref_s, peak_rss_mb on sampled-ngram"),
    ("backends.ppl_cache_lookups", "count", ("backends.cache_lookup",),
     "base of backends.ppl_cache_hit_ratio"),
    ("backends.ppl_self_s", "s",
     ("backends.ppl", "backends.ppl_given", "ngram.score", "backends.external_score"),
     "ref_us_per_pair on all workloads"),
    ("backends.round_trips", "count", ("backends.round_trip",), "docs_per_ref_s on external-stdio"),
    ("backends.wire_s", "s", ("backends.round_trip",), "docs_per_ref_s on external-stdio"),
    ("backends.call_p50_us", "us", BACKEND_KEYS, "docs_per_ref_s on external-stdio"),
    ("backends.call_p99_us", "us", BACKEND_KEYS, "docs_per_ref_s on external-stdio"),
    ("backends.call_samples", "count", BACKEND_KEYS, "sample count of the call percentiles"),
    ("backends.connect_s", "s", ("backends.connect",), "docs_per_ref_s on external-stdio"),
    ("lds.sample_pairs_s", "s", ("lds.sample_pairs",), "docs_per_ref_s on sampled-ngram"),
    ("lds.sample_pairs_calls", "count", ("lds.sample_pairs",),
     "docs_per_ref_s on sampled-ngram; 0 on exact-pairs"),
    ("lds.dsp_s", "s", ("lds.dsp",), "ref_us_per_pair on exact-pairs"),
    ("lds.dsp_rows", "count", ("lds.dsp",), "ref_us_per_pair on exact-pairs"),
    ("lds.accumulate_self_s", "s",
     ("lds.score_document", "lds.sample_pairs", "lds.dsp", "backends.ppl",
      "backends.ppl_given", "backends.cache_lookup"),
     "ref_us_per_pair on exact-pairs"),
    ("pipeline.doc_busy_s", "s", ("pipeline.score_one",), "docs_per_ref_s on exact-pairs"),
    ("pipeline.parallel_efficiency", "ratio", ("pipeline.score_one", "pipeline.score_corpus"),
     "docs_per_ref_s on exact-pairs"),
    ("pipeline.build_manifest_s", "s", ("pipeline.build_manifest",), "under 1% everywhere"),
    ("jsonio.write_s", "s", ("jsonio.write", "jsonio.write_meta"), "docs_per_ref_s on exact-pairs"),
    ("jsonio.files_written", "count", ("jsonio.write", "jsonio.write_meta"),
     "docs_per_ref_s on exact-pairs"),
    ("jsonio.bytes_written", "bytes", ("jsonio.write", "jsonio.write_meta"),
     "docs_per_ref_s on exact-pairs"),
    ("corpus.ingest_s", "s", ("corpus.ingest",), "under 1% everywhere"),
    ("corpus.tokenize_s", "s", ("corpus.tokenize",), "under 1% everywhere"),
    ("corpus.segment_s", "s", ("corpus.segment",), "under 1% everywhere"),
    ("cli.score_s", "s", ("cli.score",), "docs_per_ref_s on all workloads"),
    ("cli.select_s", "s", ("cli.select",), "docs_per_ref_s on exact-pairs"),
    ("cli.unattributed_s", "s",
     ("cli.score", "cli.select", "ngram.load", "backends.connect",
      "pipeline.score_corpus", "jsonio.write", "jsonio.write_meta",
      "pipeline.build_manifest"),
     "docs_per_ref_s on all workloads"),
)


class Tracer:
    """Durations per key, command and document spans, cache hit counts."""

    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.iter_walls: dict[str, list[float]] = defaultdict(list)
        self.cache_hits: list[bool] = []
        self.bytes_written: list[int] = []
        self.doc_cpu: list[float] = []
        self.spans: list[dict] = []
        self.missing: set[str] = set()
        self._command: int | None = None
        self._span_ids = itertools.count()

    # -- wrappers ------------------------------------------------------

    def _timed(self, key, fn):
        append = self.durations[key].append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                append(clock() - start)

        return wrapper

    def _timed_iter(self, key, fn):
        # Durations are the time inside the generator's own steps, not in
        # the consumer; the wall time from the first step to the last is
        # kept apart, because worker threads go on scoring while the
        # consumer writes what it was handed.
        append = self.durations[key].append
        walls = self.iter_walls[key].append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            first = clock()
            try:
                while True:
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        append(clock() - start)
                        return
                    append(clock() - start)
                    yield item
            finally:
                walls(clock() - first)
                close = getattr(inner, "close", None)
                if close is not None:
                    close()

        return wrapper

    def _command_span(self, key, fn):
        timed = self._timed(key, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": next(self._span_ids), "name": key, "parent": None, "start": clock()}
            self.spans.append(span)
            self._command = span["id"]
            try:
                return timed(*args, **kwargs)
            finally:
                span["end"] = clock()
                self._command = None

        return wrapper

    def _doc_span(self, key, fn):
        # A document's busy time is its thread's CPU time: a thread that
        # waits for the interpreter lock or for the scorer is not busy.
        timed = self._timed(key, fn)
        cpu = self.doc_cpu.append

        @functools.wraps(fn)
        def wrapper(doc, *args, **kwargs):
            start, cpu_start = clock(), time.thread_time()
            try:
                return timed(doc, *args, **kwargs)
            finally:
                cpu(time.thread_time() - cpu_start)
                self.spans.append(
                    {
                        "id": next(self._span_ids),
                        "name": key,
                        "parent": self._command,
                        "doc_id": getattr(doc, "id", None),
                        "thread": threading.get_ident(),
                        "start": start,
                        "end": clock(),
                    }
                )

        return wrapper

    def _backend_score(self, key, fn):
        cond = self.durations[key + ".cond"].append
        uncond = self.durations[key + ".uncond"].append

        @functools.wraps(fn)
        def wrapper(self_, target, context=None, *args, **kwargs):
            start = clock()
            try:
                return fn(self_, target, context, *args, **kwargs)
            finally:
                (cond if context else uncond)(clock() - start)

        return wrapper

    def _cache_lookup(self, key, fn):
        timed = self._timed(key, fn)
        hit = self.cache_hits.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = timed(*args, **kwargs)
            hit(entry is not None)
            return entry

        return wrapper

    def _writer(self, key, fn, suffix=""):
        timed = self._timed(key, fn)
        sizes = self.bytes_written.append

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            result = timed(path, *args, **kwargs)
            sizes(os.path.getsize(str(path) + suffix))
            return result

        return wrapper

    def _wrap(self, key, fn):
        if key in ("cli.score", "cli.select", "cli.train"):
            return self._command_span(key, fn)
        if key == "pipeline.score_one":
            return self._doc_span(key, fn)
        if key in ("corpus.ingest", "pipeline.score_corpus"):
            return self._timed_iter(key, fn)
        if key == "backends.cache_lookup":
            return self._cache_lookup(key, fn)
        if key == "jsonio.write":
            return self._writer(key, fn)
        if key == "jsonio.write_meta":
            return self._writer(key, fn, suffix=".meta.json")
        if key in BACKEND_KEYS:
            return self._backend_score(key, fn)
        return self._timed(key, fn)

    def install(self) -> None:
        for module_name, path, key in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, name = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, name)
            except (ImportError, AttributeError):
                self.missing.add(key)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(self._wrap(key, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(owner, name, staticmethod(self._wrap(key, raw.__func__)))
            else:
                setattr(owner, name, self._wrap(key, raw))

    # -- results -------------------------------------------------------

    def raw(self) -> dict:
        """Plain-data summary of one process, merged by the parent."""
        return {
            "sums": {k: sum(v) for k, v in self.durations.items()},
            "counts": {k: len(v) for k, v in self.durations.items()},
            "iter_walls": {k: sum(v) for k, v in self.iter_walls.items()},
            "call_us": _percentiles(
                [
                    d * 1e6
                    for key in BACKEND_KEYS
                    for kind in (".cond", ".uncond")
                    for d in self.durations.get(key + kind, ())
                ]
            ),
            "cache": [sum(self.cache_hits), len(self.cache_hits)],
            "bytes_written": sum(self.bytes_written),
            "doc_cpu_s": sum(self.doc_cpu),
            "missing": sorted(self.missing),
        }


def _percentiles(samples: list[float]) -> list:
    if len(samples) < 2:
        return [None, None, len(samples)]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return [cuts[49], cuts[98], len(samples)]


def layer_metrics(raw: dict, workers: int) -> dict:
    """Per-layer values of one traced pass; None marks ``unmeasured``."""
    sums, counts, missing = raw["sums"], raw["counts"], set(raw["missing"])

    def s(key):
        return sums.get(key, 0.0)

    hits, lookups = raw["cache"]
    p50, p99, samples = raw["call_us"]
    backend_s = sum(s(key + kind) for key in BACKEND_KEYS for kind in (".cond", ".uncond"))
    busy, scoring = raw["doc_cpu_s"], s("pipeline.score_corpus")
    scoring_wall = raw["iter_walls"].get("pipeline.score_corpus", 0.0)
    cli_s = s("cli.score") + s("cli.select")
    values = {
        "ngram.cond_s": s("ngram.score.cond"),
        "ngram.cond_calls": counts.get("ngram.score.cond", 0),
        "ngram.uncond_s": s("ngram.score.uncond"),
        "ngram.uncond_calls": counts.get("ngram.score.uncond", 0),
        "ngram.load_s": s("ngram.load"),
        "ngram.train_s": s("ngram.train"),
        "backends.ppl_cache_hit_ratio": hits / lookups if lookups else None,
        "backends.ppl_cache_lookups": lookups,
        "backends.ppl_self_s": s("backends.ppl") + s("backends.ppl_given") - backend_s,
        "backends.round_trips": counts.get("backends.round_trip", 0),
        "backends.wire_s": s("backends.round_trip"),
        "backends.call_p50_us": p50,
        "backends.call_p99_us": p99,
        "backends.call_samples": samples,
        "backends.connect_s": s("backends.connect"),
        "lds.sample_pairs_s": s("lds.sample_pairs"),
        "lds.sample_pairs_calls": counts.get("lds.sample_pairs", 0),
        "lds.dsp_s": s("lds.dsp"),
        "lds.dsp_rows": counts.get("lds.dsp", 0),
        "lds.accumulate_self_s": s("lds.score_document")
        - s("lds.sample_pairs")
        - s("lds.dsp")
        - s("backends.ppl")
        - s("backends.ppl_given")
        - s("backends.cache_lookup"),
        "pipeline.doc_busy_s": busy,
        "pipeline.parallel_efficiency": (
            busy / (workers * scoring_wall) if scoring_wall else None
        ),
        "pipeline.build_manifest_s": s("pipeline.build_manifest"),
        "jsonio.write_s": s("jsonio.write") + s("jsonio.write_meta"),
        "jsonio.files_written": counts.get("jsonio.write", 0)
        + counts.get("jsonio.write_meta", 0),
        "jsonio.bytes_written": raw["bytes_written"],
        "corpus.ingest_s": s("corpus.ingest"),
        "corpus.tokenize_s": s("corpus.tokenize"),
        "corpus.segment_s": s("corpus.segment"),
        "cli.score_s": s("cli.score"),
        "cli.select_s": s("cli.select"),
        "cli.unattributed_s": cli_s
        - s("ngram.load")
        - s("backends.connect")
        - scoring
        - s("jsonio.write")
        - s("jsonio.write_meta")
        - s("pipeline.build_manifest"),
    }
    for name, _unit, needs, _moves in LAYER_METRICS:
        if any(key in missing for key in needs):
            values[name] = None
    return values

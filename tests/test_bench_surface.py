"""The part of ``longdep`` that the benchmark in ``perfbench/`` calls.

``perfbench/run.py``, ``child.py`` and ``test_perfbench.py`` import these
names and read these fields. If one of them goes away, a benchmark run
crashes before it prints its result line, so each is checked here, on a
2-document corpus that scores in well under a second. The names
``perfbench/tracer.py`` wraps are checked too, and one traced smoke run
of the benchmark, shared by two tests, must end with its JSON result line
and measure every per-layer metric that ``BENCHMARK.json`` declares. Its
first pass runs untraced, so that run also stands for a plain smoke run.
"""

import importlib
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from longdep.bench import SynthSpec, generate_testset
from longdep.cli import main
from longdep.corpus import SegmentGrid
from longdep.lds import LdsConfig, derive_seed, sample_pairs, score_document
from longdep.ngram import NGramBackend, NGramModel, train_ngram

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SPEC = SynthSpec(n_positive=1, n_negative=1, n_segments=8, segment_len=8, seed=1)


@pytest.fixture(scope="module")
def testset():
    return generate_testset(SPEC)


def _grid(doc) -> SegmentGrid:
    n = SPEC.segment_len
    segments = tuple(tuple(doc.tokens[i * n:(i + 1) * n]) for i in range(SPEC.n_segments))
    return SegmentGrid(doc_id=doc.id, segment_len=n, segments=segments, source=doc.source)


def test_cli_entry_point_is_callable():
    assert callable(main)


def test_testset_carries_docs_labels_and_links(testset):
    assert len(testset.docs) == 2
    assert set(testset.labels) == {doc.id for doc in testset.docs}
    assert all(isinstance(doc.source, str) and doc.tokens for doc in testset.docs)
    assert testset.links
    for history, token in testset.links:
        assert list(history) and token


def test_model_round_trips_and_scores_with_context(testset, tmp_path):
    model = train_ngram(testset.docs, order=3, k=0.01)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = NGramModel.load(path)
    tokens = testset.docs[0].tokens
    logprob_sum, count = loaded.seq_logprob(tokens[8:16], tokens[:8])
    assert count == 8 and logprob_sum < 0.0
    assert loaded.seq_logprob(tokens[8:16], ()) == model.seq_logprob(tokens[8:16], ())


def test_both_modes_score_a_grid(testset):
    model = train_ngram(testset.docs, order=3, k=0.01)
    doc = testset.docs[0]
    grid = _grid(doc)
    cfg = LdsConfig(segment_len=SPEC.segment_len, truncate_len=SPEC.doc_token_len, sample_size=5)
    exact = score_document(NGramBackend(model), grid, cfg.replace(mode="exact"))
    assert exact.pair_count == 28
    seed = derive_seed(7, doc.id)
    assert isinstance(seed, int)
    sampled = score_document(NGramBackend(model), grid, cfg.replace(seed=7))
    assert sampled.pair_count == 5
    targets, sources = sample_pairs(grid.n_segments, 5, seed)
    assert tuple(p[:2] for p in sampled.pairs) == tuple(zip(targets.tolist(), sources.tolist()))
    assert isinstance(sampled.lds, float)


def test_every_name_the_tracer_wraps_resolves():
    # A name the tracer cannot find turns its per-layer metrics into
    # "unmeasured" without failing the benchmark run.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, path, key in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert callable(getattr(owner, name)), key


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    # One traced smoke run serves both tests below; its first pass runs
    # untraced, so it also stands for a plain smoke run. The benchmark
    # prints no result line when it refuses a run or crashes, e.g. on a
    # name it calls that is gone or a set-up step that fails. It runs
    # from a copy, so its work directory is its own.
    work = tmp_path_factory.mktemp("smoke")
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, work / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench-work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", "all", "--seconds", "1",
         "--trace", "1"],
        cwd=work, capture_output=True, text=True, timeout=600,
    )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return proc, declared


def test_benchmark_smoke_run_prints_a_result_line(smoke_run):
    proc, declared = smoke_run
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == {w["name"] for w in declared["workloads"]}
    for name, result in results.items():
        assert result["correct"] is True, (name, proc.stderr)
        assert result["failed"] == 0, (name, proc.stderr)


def test_traced_smoke_run_measures_every_layer(smoke_run):
    # A per-layer metric is null when a name the tracer wraps is gone or
    # a wrapped call no longer runs (e.g. fewer than two backend calls).
    proc, declared = smoke_run
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, result in results.items():
        for metric in declared["per_layer"]:
            value = result["metrics"][metric["name"]]["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value), (name, metric)

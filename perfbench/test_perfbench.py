"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import probe  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import stub_scorer  # noqa: E402
import tracer  # noqa: E402
from longdep.bench import SynthSpec, generate_testset  # noqa: E402
from longdep.corpus import SegmentGrid  # noqa: E402
from longdep.lds import LdsConfig, derive_seed, lds_exact, lds_sampled  # noqa: E402
from longdep.ngram import NGramBackend, train_ngram  # noqa: E402

TINY = SynthSpec(n_positive=3, n_negative=3, n_segments=12, segment_len=8, seed=1)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def tiny():
    testset = generate_testset(TINY)
    return testset, train_ngram(testset.docs, order=3, k=0.01)


def _grid(doc) -> SegmentGrid:
    length = TINY.segment_len
    segments = tuple(
        tuple(doc.tokens[i * length:(i + 1) * length]) for i in range(TINY.n_segments)
    )
    return SegmentGrid(doc_id=doc.id, segment_len=length, segments=segments, source=doc.source)


def _model_logprob(model):
    return lambda target, context: model.seq_logprob(target, context or ())


class TestReference:
    def test_agrees_with_lds_exact(self, tiny):
        testset, model = tiny
        cfg = LdsConfig(segment_len=8, truncate_len=8 * TINY.n_segments, mode="exact")
        for doc in testset.docs:
            grid = _grid(doc)
            report = lds_exact(NGramBackend(model), grid, cfg)
            expected, count = reference.reference_lds(
                grid.segments, reference.all_pairs(grid.n_segments), _model_logprob(model)
            )
            assert report.pair_count == count
            assert reference.lds_matches(report.lds, expected), (doc.id, report.lds, expected)

    def test_agrees_with_lds_sampled(self, tiny):
        testset, model = tiny
        cfg = LdsConfig(segment_len=8, truncate_len=8 * TINY.n_segments, sample_size=20, seed=7)
        for doc in testset.docs:
            grid = _grid(doc)
            seed = derive_seed(7, doc.id)
            assert seed == reference.doc_seed(7, doc.id)
            report = lds_sampled(NGramBackend(model), grid, cfg, seed=seed)
            pairs = reference.sampled_pairs(grid.n_segments, 20, seed)
            expected, count = reference.reference_lds(grid.segments, pairs, _model_logprob(model))
            assert report.pair_count == count == 20
            assert reference.lds_matches(report.lds, expected)

    def test_flags_a_perturbed_score(self):
        assert reference.lds_matches(0.125, 0.125 * (1 + 1e-12))
        assert not reference.lds_matches(0.125, 0.125 * (1 + 1e-7))
        assert not reference.lds_matches(0.0, 1e-9)

    def test_selection_and_accuracy(self):
        rows = [
            {"doc_id": "a", "source": "x", "lds": 0.3},
            {"doc_id": "b", "source": "x", "lds": 0.1},
            {"doc_id": "c", "source": "x", "lds": 0.2},
            {"doc_id": "d", "source": "w", "lds": 0.0},
        ]
        assert reference.prolong_selection(rows, 0.5) == ["d", "a", "c"]
        lds = {r["doc_id"]: r["lds"] for r in rows}
        assert reference.accuracy_at_k(lds, {"a": 1, "b": 0, "c": 1, "d": 0}) == 1.0
        assert reference.accuracy_at_k(lds, {"a": 0, "b": 1, "c": 0, "d": 1}) == 0.0


class TestRunChecks:
    @pytest.fixture
    def scored(self):
        w = run.smoke(run.WORKLOADS["exact-pairs"])
        bench = run.import_longdep()
        r = run.Run(w, seed=5, trace=False, is_smoke=True)
        shutil.rmtree(r.dir, ignore_errors=True)
        r.dir.mkdir(parents=True)
        info = r.set_up(bench)
        records = r.passes(0)
        yield r, records, info
        shutil.rmtree(r.dir, ignore_errors=True)

    def test_clean_outputs_pass(self, scored):
        r, records, info = scored
        assert r.check(records, info["testset"]) == 1.0
        assert r.problems == []

    def test_perturbed_report_is_flagged(self, scored):
        r, records, info = scored
        path = r.out / "reports.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows:
            if row["doc_id"] == run.CHECK_IDS[0]:
                row["lds"] *= 1 + 1e-6
                row["pair_count"] += 1
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        r.check(records, info["testset"])
        assert any("reference" in p for p in r.problems)
        assert any("pair_count" in p for p in r.problems)


class TestStub:
    LINKS = frozenset({(("a", "b"), "c")})

    def test_answers_token_lists_and_text(self):
        as_list = stub_scorer.answer(
            json.dumps({"req_id": "1", "target": ["c", "x"], "context": ["z", "a", "b"]}),
            self.LINKS,
        )
        as_text = stub_scorer.answer(
            json.dumps({"req_id": "2", "target": "c x", "context": "z a b"}), self.LINKS
        )
        assert as_list == {"req_id": "1", "logprob_sum": -1.0, "token_count": 2}
        assert as_text["logprob_sum"] == -1.0

    def test_unconditional_and_errors(self):
        plain = stub_scorer.answer(json.dumps({"req_id": "3", "target": "c x"}), self.LINKS)
        assert plain["logprob_sum"] == -4.0
        assert "error" in stub_scorer.answer("not json", self.LINKS)
        assert "error" in stub_scorer.answer(json.dumps({"req_id": "4", "target": []}), self.LINKS)


class TestProbe:
    def test_trimmed_mean_drops_the_ends(self):
        samples = [1.0] * 8 + [0.0, 100.0]
        assert probe.trimmed_mean(samples) == 1.0
        assert probe.trimmed_mean([2.0]) == 2.0

    def test_scale_is_measured_and_the_probe_stops(self):
        cpu = min(os.sched_getaffinity(0))
        with probe.SpeedProbe(cpu) as p:
            time.sleep(0.2)
            proc = p._proc
        assert p.scale is not None and p.scale > 0
        assert proc.returncode == 0


class TestTracer:
    def test_missing_target_is_unmeasured(self, monkeypatch):
        monkeypatch.setattr(
            tracer, "TARGETS", (("longdep.lds", "no_such_function", "lds.sample_pairs"),)
        )
        t = tracer.Tracer()
        t.install()
        assert t.missing == {"lds.sample_pairs"}
        values = tracer.layer_metrics(t.raw(), workers=1)
        assert values["lds.sample_pairs_s"] is None
        assert values["lds.sample_pairs_calls"] is None
        assert values["lds.accumulate_self_s"] is None
        assert values["corpus.segment_s"] == 0.0


class TestSmoke:
    def test_all_workloads_traced(self):
        proc = _bench("--workload", "all", "--smoke", "--seconds", "0", "--seed", "11",
                      "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(results) == set(run.WORKLOADS)
        names = {m[0] for m in tracer.LAYER_METRICS} | {name for name, _unit in run.RUN_LAYER}
        for result in results.values():
            assert result["correct"] and result["failed"] == 0
            assert set(result["metrics"]) == names
        metric = {w: {k: v["value"] for k, v in r["metrics"].items()} for w, r in results.items()}
        assert metric["exact-pairs"]["lds.sample_pairs_calls"] == 0
        assert metric["sampled-ngram"]["backends.round_trips"] == 0
        assert metric["exact-pairs"]["backends.round_trips"] == 0
        assert metric["external-stdio"]["ngram.cond_calls"] == 0
        assert metric["external-stdio"]["backends.round_trips"] > 0

    def test_one_workload_end_to_end(self):
        proc = _bench("--workload", "external-stdio", "--smoke", "--seconds", "0", "--seed", "12")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert set(result["metrics"]) == {name for name, _unit in run.END_TO_END}
        assert all(m["value"] > 0 for m in result["metrics"].values())

    def test_refuses_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "sampled-ngram", "--seconds", "1", cwd=tmp_path)
        assert proc.returncode != 0
        assert proc.stdout == ""

    def test_refuses_a_changed_corpus(self, tmp_path):
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        pins_path = tmp_path / "perfbench" / "pins.json"
        pins = json.loads(pins_path.read_text())
        pins["corpus_sha256"]["external-stdio"]["smoke"] = "0" * 64
        pins_path.write_text(json.dumps(pins))
        proc = _bench("--workload", "external-stdio", "--smoke", "--seconds", "0", cwd=tmp_path)
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "does not match the pin" in proc.stderr

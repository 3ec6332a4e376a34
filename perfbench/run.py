"""End-to-end benchmark of the longdep CLI.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all          # every workload, one table

Each workload writes a pinned synthetic JSONL corpus at set-up (and, for
the n-gram workloads, trains the model with ``longdep train-ngram``),
then scores it again and again for ``--seconds`` seconds. Every pass is a
fresh interpreter calling ``longdep.cli.main`` (``score``, plus
``select`` where the workload says so), as a user would run the tool.
The passes run one after another from this single process.

``--seed`` orders the corpus lines and seeds scoring and selection; the
corpus content itself is pinned by sha256 in ``pins.json``, and the run
is refused if the generator no longer reproduces it. After the timed
passes, every pass must have produced byte-identical reports, a fixed
subset of documents is recomputed by the independent reference in
``reference.py``, and the selection and pair sidecars are checked.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
each the median over the run's passes:

  docs_per_ref_s   documents scored per reference second of a pass (below)
  ref_us_per_pair  the same time per evaluated pair
  setup_s          median set-up time in reference seconds: corpus
                   generation and writing, plus ``train-ngram`` on the
                   n-gram workloads
  peak_rss_mb      peak resident set of the CLI process
  accuracy_at_k    generator positives among the top k by LDS, k = positives
  scored_frac      scored documents over attempted ones, 1 - failed_frac
                   (failed_frac itself is 0 on a clean run, so the table
                   prints it but the metrics carry its complement); a
                   failed output check counts every document as failed

A pass's time is its CPU time: the CLI process's, all threads, from
before ``longdep`` is imported to the last command's return, plus that of
the processes it started (the stub scorer). CPU time leaves out what the
host of a virtual machine takes from the guest (steal), which made the
wall time of one scoring job vary by 1.5x within minutes. The host's load
also changes how fast a CPU runs, in steps of up to 2x, so the CPU time
is scaled by the speed probe of ``probe.py`` that runs beside the pass:
a reference second is a CPU second at the speed at which the probe's
fixed kernel takes ``probe.REFERENCE_S``. The benchmark, its passes and
the probe all run on one CPU. The passes' Python threads hold the
interpreter lock, so on an unshared machine a pass's CPU time and wall
time agree.

With ``--trace 1`` passes alternate untraced and traced and it carries
the per-layer metrics of ``tracer.py`` and these of the run:

  trace.overhead_frac  the traced passes' median time over the untraced
                       ones', minus one
  cpu.docs_per_s       documents per CPU second, unscaled
  wall.docs_per_s      documents per wall-clock second (the probe takes
                       about a twentieth of the CPU)
  machine.speed_scale  the probe's scale factor, below 1 when the CPU ran
                       slower than the reference
  machine.steal_frac   the share of the pass's wall time the host took
                       from its CPU (``unmeasured`` where not reported)

each the median over the untraced passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import reference
import stub_scorer
from probe import SpeedProbe
from tracer import LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
PINS = HERE / "pins.json"

SEGMENT_LEN = 32
GENERATOR_SEED = 2405
# setup_s is the median of SETUPS samples. A sample repeats the set-up
# until it has taken SETUP_SAMPLE_S CPU seconds and takes the mean, because
# on a shared 2-vCPU VM the CPU speed was seen to switch between two levels
# about 2x apart every second or so, and a set-up of a few milliseconds
# would land on one.
SETUPS = 3
SETUP_SAMPLE_S = 1.0
FRACTION = 0.5
CHILD_TIMEOUT_S = 60
# numpy's BLAS would otherwise start a thread per core in every CLI
# process; the runs are limited to the two threads the workloads name.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# One document of each generated kind: planted-key, entity-chain,
# concat-shorts, local-markov.
CHECK_IDS = ("pos-0000", "pos-0001", "neg-0000", "neg-0001")


@dataclass(frozen=True)
class Workload:
    name: str
    n_docs: int
    n_segments: int
    mode: str
    sample_size: int
    workers: int
    backend: str
    emit_pairs: bool = False
    select: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sampled-ngram", 32, 256, "sampled", 5000, 1, "ngram"),
        Workload("exact-pairs", 16, 128, "exact", 0, 2, "ngram", emit_pairs=True, select=True),
        Workload("external-stdio", 32, 128, "sampled", 1000, 1, "external"),
    )
}

END_TO_END = (
    ("docs_per_ref_s", "docs/ref-s"),
    ("ref_us_per_pair", "ref-us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy_at_k", "frac"),
    ("scored_frac", "frac"),
)
# Per-layer metrics of the traced run that come from the run, not the tracer.
RUN_LAYER = (
    ("trace.overhead_frac", "ratio"),
    ("cpu.docs_per_s", "docs/cpu-s"),
    ("wall.docs_per_s", "docs/s"),
    ("machine.speed_scale", "ratio"),
    ("machine.steal_frac", "ratio"),
)


class Refused(Exception):
    """The run cannot be made on these inputs; no result is printed."""


def smoke(w: Workload) -> Workload:
    return replace(w, n_docs=4, n_segments=16, sample_size=min(w.sample_size, 40))


def import_longdep():
    if not (SRC / "longdep" / "__init__.py").is_file():
        raise Refused(f"no longdep sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import longdep.bench

    return longdep.bench


def corpus_lines(docs) -> list[str]:
    return [
        json.dumps({"id": d.id, "source": d.source, "text": " ".join(d.tokens)},
                   sort_keys=True, ensure_ascii=False) + "\n"
        for d in docs
    ]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def steal_s(cpu: int) -> float | None:
    """Seconds the host has taken from this machine's CPU ``cpu`` since
    boot; None where the system does not say."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            for line in handle:
                fields = line.split()
                if fields[:1] == [f"cpu{cpu}"] and len(fields) > 8:
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except OSError:
        pass
    return None


def run_child(job: dict, job_path: Path, hash_seed: int) -> dict | None:
    """Run one CLI process; None if it failed to produce a result.

    Each process gets its own string hash seed, derived from the run's
    seed and the process's place in the run: the median over a run's
    passes then averages over dict layouts instead of resting on one,
    and a seed still reproduces every process.
    """
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path = Path(job["result"])
    if result_path.exists():
        result_path.unlink()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(job_path)],
        cwd=ROOT,
        env={**os.environ, **BLAS_ENV, "PYTHONHASHSEED": str(hash_seed % 2**32)},
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
    finally:
        # Anything the pass left behind in its process group goes too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        print(f"pass failed with exit code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


class Run:
    """One benchmark run of one workload."""

    def __init__(self, w: Workload, seed: int, trace: bool, is_smoke: bool):
        self.w, self.seed, self.trace, self.is_smoke = w, seed, trace, is_smoke
        self.dir = WORK / f"{w.name}-seed{seed}"
        self.corpus = self.dir / "corpus.jsonl"
        self.model = self.dir / "model.json"
        self.links = self.dir / "links.json"
        self.out = self.dir / "out"
        self.traces = WORK / "traces"
        self.problems: list[str] = []
        self.cpu = min(os.sched_getaffinity(0))

    def job(self, name: str, calls: list[list[str]], traced: bool) -> dict:
        return {
            "src": str(SRC),
            "trace": traced,
            "calls": calls,
            "result": str(self.dir / f"{name}.result.json"),
            "spans": str(self.traces / f"{self.w.name}-seed{self.seed}-{name}.json"),
        }

    def hash_seed(self, index: int) -> int:
        return random.Random(f"{self.seed}:{index}").getrandbits(32)

    # -- set-up --------------------------------------------------------

    def set_up(self, bench_module) -> dict:
        w = self.w
        spec = bench_module.SynthSpec(
            n_positive=w.n_docs // 2,
            n_negative=w.n_docs - w.n_docs // 2,
            n_segments=w.n_segments,
            segment_len=SEGMENT_LEN,
            seed=GENERATOR_SEED,
        )
        pins = json.loads(PINS.read_text(encoding="utf-8"))["corpus_sha256"]
        expected = pins[w.name]["smoke" if self.is_smoke else "full"]
        train_raws, samples, count = [], [], 0
        while len(samples) < SETUPS:
            spent, reps = 0.0, 0
            with SpeedProbe(self.cpu) as probe:
                while reps == 0 or spent < SETUP_SAMPLE_S:
                    start = time.process_time()
                    testset = bench_module.generate_testset(spec)
                    lines = corpus_lines(testset.docs)
                    digest = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
                    if digest != expected:
                        raise Refused(
                            f"{w.name}: generated corpus sha256 {digest} does not match the pin "
                            f"{expected}; the workload's inputs changed"
                        )
                    random.Random(self.seed).shuffle(lines)
                    self.corpus.write_text("".join(lines), encoding="utf-8")
                    if w.backend == "external":
                        links = sorted([list(h), t] for h, t in testset.links)
                        self.links.write_text(json.dumps(links), encoding="utf-8")
                    spent += time.process_time() - start
                    if w.backend == "ngram":
                        calls = [["train-ngram", "--input", str(self.corpus), "--out",
                                  str(self.model), "--order", "3", "--k", "0.01"]]
                        result = run_child(self.job(f"setup{count}", calls, self.trace),
                                           self.dir / "setup.job.json", self.hash_seed(count))
                        if result is None:
                            raise Refused(f"{w.name}: train-ngram failed at set-up")
                        spent += result["cpu_s"]
                        if self.trace:
                            train_raws.append(result["trace"])
                    reps += 1
                    count += 1
            samples.append(spent / reps * probe.scale)
        info = {"testset": testset, "setup_s": statistics.median(samples),
                "train_raws": train_raws}
        if w.backend == "ngram":
            info["model_sha256"] = sha256_file(self.model)
        return info

    # -- timed passes --------------------------------------------------

    def calls(self) -> list[list[str]]:
        w = self.w
        if w.backend == "ngram":
            backend = f"ngram:{self.model}"
        else:
            command = shlex.join([sys.executable, str(HERE / "stub_scorer.py"), str(self.links)])
            backend = f"external:stdio://{command}"
        score = [
            "score", "--input", str(self.corpus), "--backend", backend,
            "--out-dir", str(self.out), "--segment-len", str(SEGMENT_LEN),
            "--truncate-len", str(w.n_segments * SEGMENT_LEN), "--mode", w.mode,
            "--workers", str(w.workers), "--seed", str(self.seed),
        ]
        if w.mode == "sampled":
            score += ["--sample-size", str(w.sample_size)]
        if w.emit_pairs:
            score.append("--emit-pairs")
        calls = [score]
        if w.select:
            calls.append([
                "select", "--reports", str(self.out / "reports.jsonl"),
                "--out-dir", str(self.out), "--strategy", "prolong",
                "--fraction", str(FRACTION), "--seed", str(self.seed),
            ])
        return calls

    def read_reports(self) -> tuple[bytes, list[dict]]:
        blob = (self.out / "reports.jsonl").read_bytes()
        return blob, [json.loads(line) for line in blob.decode("utf-8").splitlines() if line]

    def passes(self, seconds: float) -> list[dict]:
        """Score the corpus for about ``seconds``; one record per pass.

        A pass starts only while half a typical pass still fits before the
        deadline, so a run takes about ``seconds`` on average instead of
        half a pass more.
        """
        records, took = [], []
        start = time.perf_counter()
        while (
            not records
            or time.perf_counter() - start + statistics.median(took) / 2 < seconds
            or (self.trace and len(records) < 2)
        ):
            index = len(records)
            pass_start = time.perf_counter()
            traced = self.trace and index % 2 == 1
            if self.out.exists():
                shutil.rmtree(self.out)
            stolen, child_start = steal_s(self.cpu), time.perf_counter()
            with SpeedProbe(self.cpu) as probe:
                result = run_child(self.job(f"pass{index}", self.calls(), traced),
                                   self.dir / "pass.job.json", self.hash_seed(1000 + index))
            steal_frac = None
            if stolen is not None:
                steal_frac = (steal_s(self.cpu) - stolen) / (time.perf_counter() - child_start)
            record = {"traced": traced, "result": result, "scored": 0, "pairs": 0,
                      "digest": None, "steal_frac": steal_frac, "scale": probe.scale}
            if result is not None:
                record["ref_cpu_s"] = result["cpu_s"] * probe.scale
            if result is not None and (self.out / "reports.jsonl").exists():
                blob, rows = self.read_reports()
                scored = [r for r in rows if r.get("status") == "scored"]
                record.update(
                    scored=len(scored),
                    pairs=sum(r["pair_count"] for r in scored),
                    digest=hashlib.sha256(blob).hexdigest(),
                )
            records.append(record)
            took.append(time.perf_counter() - pass_start)
            took_s = "failed" if result is None else (
                f"{record['ref_cpu_s']:.3f} s scaled CPU, {result['cpu_s']:.3f} s CPU, "
                f"{result['wall_s']:.3f} s wall, speed scale {probe.scale:.3f}"
            )
            print(f"{self.w.name}: pass {index}{' (traced)' if traced else ''}: {took_s}",
                  file=sys.stderr)
        return records

    # -- output checks -------------------------------------------------

    def check(self, records: list[dict], testset) -> float | None:
        """Check the passes' outputs; returns accuracy_at_k."""
        w = self.w
        if any(r["result"] is None or r["scored"] != w.n_docs for r in records):
            self.problems.append("a pass failed or left documents unscored")
        digests = {r["digest"] for r in records}
        if len(digests) != 1:
            self.problems.append(f"passes wrote {len(digests)} different reports files")
        if not (self.out / "reports.jsonl").exists():
            return None
        _blob, rows = self.read_reports()
        by_id = {r["doc_id"]: r for r in rows if r.get("status") == "scored"}
        tokens = {d.id: d.tokens for d in testset.docs}
        logprob = self.reference_logprob()
        for doc_id in CHECK_IDS:
            row = by_id.get(doc_id)
            if row is None:
                self.problems.append(f"{doc_id}: not scored")
                continue
            n, length = w.n_segments, SEGMENT_LEN
            segments = [tokens[doc_id][i * length:(i + 1) * length] for i in range(n)]
            if w.mode == "exact":
                pairs = reference.all_pairs(n)
            else:
                pairs = reference.sampled_pairs(
                    n, w.sample_size, reference.doc_seed(self.seed, doc_id)
                )
            expected, count = reference.reference_lds(segments, pairs, logprob)
            if row["pair_count"] != count or row["n_segments"] != n:
                self.problems.append(
                    f"{doc_id}: pair_count {row['pair_count']} != {count} "
                    f"or n_segments {row['n_segments']} != {n}"
                )
            if not reference.lds_matches(row["lds"], expected):
                self.problems.append(f"{doc_id}: lds {row['lds']!r} != reference {expected!r}")
            if w.emit_pairs:
                self.check_sidecar(doc_id, row)
        if w.emit_pairs:
            sidecars = list((self.out / "pairs").glob("*.json"))
            if len(sidecars) != len(by_id):
                self.problems.append(f"{len(sidecars)} pair sidecars for {len(by_id)} documents")
        retained_path = self.out / "retained_ids.txt"
        if w.select and not retained_path.exists():
            self.problems.append("select wrote no retained_ids.txt")
        elif w.select:
            retained = retained_path.read_text(encoding="utf-8").split()
            if retained != reference.prolong_selection(list(by_id.values()), FRACTION):
                self.problems.append("select retained other documents than the reference")
        labels = {d.id: testset.labels[d.id] for d in testset.docs}
        if set(by_id) != set(labels):
            return None
        return reference.accuracy_at_k({k: r["lds"] for k, r in by_id.items()}, labels)

    def check_sidecar(self, doc_id: str, row: dict) -> None:
        found = list((self.out / "pairs").glob(f"{doc_id}-*.json"))
        if len(found) != 1:
            self.problems.append(f"{doc_id}: {len(found)} pair sidecars")
            return
        data = json.loads(found[0].read_text(encoding="utf-8"))
        if len(data.get("pairs", ())) != row["pair_count"] or data.get("lds") != row["lds"]:
            self.problems.append(f"{doc_id}: pair sidecar disagrees with its report")

    def reference_logprob(self):
        if self.w.backend == "external":
            links = stub_scorer.load_links(str(self.links))
            return lambda target, context: (
                stub_scorer.logprob_sum(target, context, links), len(target)
            )
        from longdep.ngram import NGramModel

        model = NGramModel.load(self.model)
        return lambda target, context: model.seq_logprob(target, context or ())


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, is_smoke: bool) -> dict:
    bench_module = import_longdep()
    run = Run(w, seed, trace, is_smoke)
    if run.dir.exists():
        shutil.rmtree(run.dir)
    run.dir.mkdir(parents=True)
    run.traces.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        info = run.set_up(bench_module)
        print(f"{w.name}: set-up {time.perf_counter() - start:.1f} s, "
              f"median {info['setup_s']:.3f} s", file=sys.stderr)
        records = run.passes(seconds)
        start = time.perf_counter()
        accuracy = run.check(records, info["testset"])
        print(f"{w.name}: checks {time.perf_counter() - start:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    if accuracy is None:
        run.problems.append("accuracy_at_k could not be computed")

    attempted = w.n_docs * len(records)
    # A failed output check fails the whole run: every document counts.
    failed = attempted if run.problems else sum(w.n_docs - r["scored"] for r in records)
    ok = [r for r in records if r["result"] is not None and r["scored"]]
    plain = [r for r in ok if not r["traced"]]
    metrics: dict[str, dict] = {}
    if not trace:
        values = {
            "docs_per_ref_s": _median(r["scored"] / r["ref_cpu_s"] for r in plain),
            "ref_us_per_pair": _median(r["ref_cpu_s"] * 1e6 / r["pairs"] for r in plain),
            "setup_s": info["setup_s"],
            "peak_rss_mb": _median(r["result"]["peak_rss_mb"] for r in plain),
            "accuracy_at_k": accuracy,
            "scored_frac": 1.0 - failed / attempted,
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        per_pass = [layer_metrics(r["result"]["trace"], w.workers) for r in ok if r["traced"]]
        train = [layer_metrics(raw, w.workers)["ngram.train_s"] for raw in info["train_raws"]]
        for name, unit, _needs, _moves in LAYER_METRICS:
            if name == "ngram.train_s":
                value = _median(train) if train else 0.0
            else:
                value = _median(p[name] for p in per_pass)
            metrics[name] = {"value": value, "unit": unit}
        traced_cpu = _median(r["ref_cpu_s"] for r in ok if r["traced"])
        plain_cpu = _median(r["ref_cpu_s"] for r in plain)
        values = {
            "trace.overhead_frac":
                traced_cpu / plain_cpu - 1.0 if traced_cpu and plain_cpu else None,
            "cpu.docs_per_s": _median(r["scored"] / r["result"]["cpu_s"] for r in plain),
            "wall.docs_per_s": _median(r["scored"] / r["result"]["wall_s"] for r in plain),
            "machine.speed_scale": _median(r["scale"] for r in plain),
            "machine.steal_frac": _median(r["steal_frac"] for r in plain),
        }
        for name, unit in RUN_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
    if info.get("model_sha256") and not is_smoke:
        recorded = json.loads(PINS.read_text(encoding="utf-8"))["model_sha256_info"].get(w.name)
        same = "matches" if recorded == info["model_sha256"] else "differs from"
        print(f"{w.name}: model sha256 {info['model_sha256']} {same} the recorded one "
              "(information only)", file=sys.stderr)
    for problem in run.problems:
        print(f"{w.name}: CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def format_table(name: str, result: dict) -> str:
    lines = [f"== {name}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']} "
             f"failed_frac={result['failed'] / result['attempted']:.4f}"]
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        shown = "unmeasured" if value is None else f"{value:.6g}"
        lines.append(f"  {metric:<32} {shown:>14} {entry['unit']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, for checking the benchmark itself")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # A terminated run still stops its CLI process and speed probe.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # One CPU for the benchmark, the CLI processes (they inherit the mask)
    # and the speed probe, so the probe times the CPU the pass runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    results = {}
    try:
        for name in names:
            w = smoke(WORKLOADS[name]) if args.smoke else WORKLOADS[name]
            results[name] = run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for name, result in results.items():
        print(format_table(name, result))
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end command-line workflow and exit-code contracts."""

import argparse
import errno
import functools
import hashlib
import io
import json
import logging
import os
import shlex
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from scripted_scorer import TcpScorer
from support import (
    PINNED_MODEL_SHA256,
    PINNED_SPEC,
    DyingScorer,
    corpus_lines,
    fill_disk_after,
    pair_columns,
    process_alive,
)

from longdep.backends import ExternalBackend
from longdep.bench import generate_testset
from longdep.cli import build_parser, main
from longdep.config import resolve_config
from longdep.corpus import ingest
from longdep.jsonio import canonical_dumps
from longdep.lds import LdsConfig, _accumulate
from longdep.ngram import NGramBackend, NGramModel
from longdep.pipeline import score_corpus

SRC = Path(__file__).resolve().parent.parent / "src"

SCORE_FLAGS = [
    "--segment-len",
    "4",
    "--truncate-len",
    "32",
    "--mode",
    "exact",
]

TRAIN_FLAGS = ["--order", "2", "--k", "0.1"]

# Every option of the parser and of each subcommand: option strings ->
# (dest, choices, default). A command has a flag for each config key it
# reads, and for no other.
CLI_OPTIONS = {
    "longdep": {
        "-h --help": ("help", None, "==SUPPRESS=="),
        "-v --verbose": ("verbose", None, False),
    },
    "train-ngram": {
        "--config": ("config", None, None),
        "--input": ("input", None, None),
        "--input-format": ("input_format", ("jsonl", "plain-dir"), None),
        "--k": ("k", None, None),
        "--order": ("order", None, None),
        "--out": ("out", None, None),
        "--show-config": ("show_config", None, False),
        "--tokenizer": ("tokenizer", ("whitespace", "byte"), None),
        "-h --help": ("help", None, "==SUPPRESS=="),
    },
    "score": {
        "--alpha": ("alpha", None, None),
        "--backend": ("backend", None, None),
        "--beta": ("beta", None, None),
        "--config": ("config", None, None),
        "--dsp-variant": ("dsp_variant", ("multiplicative", "additive", "none"), None),
        "--emit-pairs": ("emit_pairs", None, False),
        "--gamma": ("gamma", None, None),
        "--input": ("input", None, ""),
        "--input-format": ("input_format", ("jsonl", "plain-dir"), None),
        "--mode": ("mode", ("exact", "sampled"), None),
        "--out-dir": ("out_dir", None, "longdep-out"),
        "--sample-size": ("sample_size", None, None),
        "--seed": ("seed", None, None),
        "--segment-len": ("segment_len", None, None),
        "--show-config": ("show_config", None, False),
        "--tau": ("tau", None, None),
        "--tokenizer": ("tokenizer", ("whitespace", "byte"), None),
        "--truncate-len": ("truncate_len", None, None),
        "--workers": ("workers", None, None),
        "-h --help": ("help", None, "==SUPPRESS=="),
    },
    "select": {
        "--config": ("config", None, None),
        "--fraction": ("fraction", None, None),
        "--global-ranking": ("global_ranking", None, False),
        "--out-dir": ("out_dir", None, "longdep-out"),
        "--passthrough": ("passthrough", None, None),
        "--reports": ("reports", None, None),
        "--seed": ("seed", None, None),
        "--show-config": ("show_config", None, False),
        "--strategy": ("strategy", ("prolong", "random", "full"), "prolong"),
        "-h --help": ("help", None, "==SUPPRESS=="),
    },
    "heatmap": {
        "--cell-size": ("cell_size", None, 4),
        "--out-csv": ("out_csv", None, ""),
        "--out-image": ("out_image", None, ""),
        "--pairs": ("pairs", None, None),
        "--scale": ("scale", ("linear", "signed-diverging"), "linear"),
        "--value": ("value", ("dst", "pairwise"), "dst"),
        "-h --help": ("help", None, "==SUPPRESS=="),
    },
    "bench": {
        "--backends": ("backends", None, "ngram"),
        "--config": ("config", None, None),
        "--k": ("k", None, None),
        "--n-negative": ("n_negative", None, 100),
        "--n-positive": ("n_positive", None, 100),
        "--n-segments": ("n_segments", None, 64),
        "--order": ("order", None, None),
        "--out": ("out", None, ""),
        "--sample-sizes": ("sample_sizes", None, "500,5000"),
        "--seed": ("seed", None, None),
        "--segment-len": ("bench_segment_len", None, 16),
        "--show-config": ("show_config", None, False),
        "-h --help": ("help", None, "==SUPPRESS=="),
    },
}

# Runs ``longdep.cli.main`` on its arguments and SIGKILLs its own process
# as the 4th document starts scoring.
KILL_ON_FOURTH_DOCUMENT = """
import os, signal, sys
from longdep.cli import main
from longdep.ngram import NGramBackend

real_score_pairs = NGramBackend.score_pairs
calls = []

def score_pairs(self, *args, **kwargs):
    calls.append(1)
    if len(calls) == 4:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_score_pairs(self, *args, **kwargs)

NGramBackend.score_pairs = score_pairs
sys.exit(main(sys.argv[1:]))
"""


# For each command, keys that other commands have flags for but that it
# does not read, and a valid value of each.
UNREAD_KEYS = {
    "train-ngram": ("seed", "workers"),
    "select": ("tokenizer", "input_format", "workers"),
    "bench": ("tokenizer", "input_format", "workers"),
}
UNREAD_VALUES = {"seed": 7, "workers": 2, "tokenizer": "byte", "input_format": "plain-dir"}

# Arguments with which each command, run, exits 2 at once.
FAILING_AT_ONCE = {
    "train-ngram": ["--input", "missing.jsonl", "--out", "model.json"],
    "select": ["--reports", "missing.jsonl"],
    "bench": ["--n-positive", "0"],
}


def write_corpus(path, n_docs=8, words=24):
    rows = []
    for i in range(n_docs):
        text = " ".join(f"w{(i * 5 + j) % 11}" for j in range(words))
        rows.append({"id": f"d{i:03d}", "text": text, "source": "web"})
    rows.append({"id": "tiny", "text": "too short", "source": "web"})
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path


def write_lines(path, lines):
    """A JSONL file of the given raw byte lines."""
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return str(path)


TEXT = " ".join(f"w{j % 11}" for j in range(24))


def record_line(doc_id):
    return json.dumps({"id": doc_id, "text": TEXT, "source": "web"}).encode("utf-8")


NOT_UTF8_LINE = b'{"id": "bad", "text": "w1 \xff w2", "source": "web"}'


@pytest.fixture()
def corpus(tmp_path):
    return str(write_corpus(tmp_path / "corpus.jsonl"))


@pytest.fixture()
def model(tmp_path, corpus):
    path = str(tmp_path / "model.json")
    code = main(["train-ngram", "--input", corpus, "--out", path, *TRAIN_FLAGS])
    assert code == 0
    return path


def run_score(corpus, model, out_dir, extra=()):
    return main(
        [
            "score",
            "--input",
            corpus,
            "--backend",
            f"ngram:{model}",
            "--out-dir",
            str(out_dir),
            *SCORE_FLAGS,
            *extra,
        ]
    )


class TestUsage:
    def test_every_option_keeps_its_strings_dest_choices_and_default(self):
        parser = build_parser()
        [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: {
                " ".join(a.option_strings): (a.dest, a.choices, a.default)
                for a in sub._actions
                if a.option_strings
            }
            for name, sub in {"longdep": parser, **commands.choices}.items()
        }
        assert options == CLI_OPTIONS

    @pytest.mark.parametrize(
        "command,key", [(command, key) for command, keys in UNREAD_KEYS.items() for key in keys]
    )
    def test_a_flag_for_a_key_the_command_does_not_read_is_refused(self, command, key, capsys):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as info:
            main([command, *FAILING_AT_ONCE[command], flag, str(UNREAD_VALUES[key])])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} " in capsys.readouterr().err

    def test_a_config_file_may_still_hold_those_keys(self, corpus, model, tmp_path, capsys):
        configs = {}
        for command, keys in UNREAD_KEYS.items():
            configs[command] = tmp_path / f"{command}.json"
            configs[command].write_text(json.dumps({key: UNREAD_VALUES[key] for key in keys}))
        trained = tmp_path / "trained.json"
        assert main(["train-ngram", "--input", corpus, "--out", str(trained), *TRAIN_FLAGS,
                     "--config", str(configs["train-ngram"])]) == 0
        assert trained.read_bytes() == Path(model).read_bytes()
        assert run_score(corpus, model, tmp_path / "out") == 0
        reports = str(tmp_path / "out" / "reports.jsonl")
        for out, config in (("plain", []), ("configured", ["--config", str(configs["select"])])):
            args = ["select", "--reports", reports, "--out-dir", str(tmp_path / out)]
            assert main([*args, *config]) == 0
        manifests = [(tmp_path / out / "manifest.json").read_bytes()
                     for out in ("plain", "configured")]
        assert manifests[0] == manifests[1]
        assert main([*TestBench.BENCH_ARGS, "--config", str(configs["bench"])]) == 0
        for command, keys in UNREAD_KEYS.items():
            capsys.readouterr()
            assert main([command, *FAILING_AT_ONCE[command], "--show-config",
                         "--config", str(configs[command])]) == 0
            shown = json.loads(capsys.readouterr().out)["config"]
            assert {key: shown[key] for key in keys} == {key: UNREAD_VALUES[key] for key in keys}

    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_backend_string(self, corpus, tmp_path):
        code = main(
            ["score", "--input", corpus, "--backend", "magic", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2

    def test_missing_input(self, tmp_path):
        code = main(
            ["score", "--input", str(tmp_path / "nope.jsonl"), "--backend", "ngram:x"]
        )
        assert code == 2

    def test_missing_model_file(self, corpus, tmp_path):
        code = run_score(corpus, tmp_path / "missing-model.json", tmp_path / "o")
        assert code == 2

    def test_bad_flag_value_is_usage_error(self, corpus, model, tmp_path):
        code = main(
            [
                "score",
                "--input",
                corpus,
                "--backend",
                f"ngram:{model}",
                "--out-dir",
                str(tmp_path / "o"),
                "--segment-len",
                "4",
                "--truncate-len",
                "2",
            ]
        )
        assert code == 2


class TestTrainNgram:
    def test_writes_model_and_sidecar(self, tmp_path, corpus):
        out = tmp_path / "nested" / "model.json"
        code = main(["train-ngram", "--input", corpus, "--out", str(out), *TRAIN_FLAGS])
        assert code == 0
        header = json.loads(out.read_bytes().partition(b"\n")[0])
        assert header["order"] == 2
        assert header["k"] == 0.1
        meta = json.loads((tmp_path / "nested" / "model.json.meta.json").read_text())
        assert meta["complete"] is True
        assert meta["documents"] == 9

    def test_lone_surrogate_line_is_skipped(self, tmp_path, corpus):
        with open(corpus, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"id": "bad", "text": "w1 \ud800 w2"}) + "\n")
        out = tmp_path / "model.bin"
        assert main(["train-ngram", "--input", corpus, "--out", str(out), *TRAIN_FLAGS]) == 0
        meta = json.loads((tmp_path / "model.bin.meta.json").read_text())
        assert meta["documents"] == 9

    def test_line_that_is_not_utf8_is_skipped(self, tmp_path):
        lines = [record_line(f"d{i}") for i in range(4)]
        corpus = write_lines(tmp_path / "c.jsonl", [*lines[:3], NOT_UTF8_LINE, lines[3]])
        out = tmp_path / "model.bin"
        assert main(["train-ngram", "--input", corpus, "--out", str(out), *TRAIN_FLAGS]) == 0
        meta = json.loads((tmp_path / "model.bin.meta.json").read_text())
        assert meta["documents"] == 4

    def test_show_config_prints_and_writes_nothing(self, tmp_path, corpus, capsys):
        out = tmp_path / "model.json"
        code = main(
            ["train-ngram", "--input", corpus, "--out", str(out), "--show-config", *TRAIN_FLAGS]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["order"] == 2
        assert payload["config"]["k"] == 0.1
        assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl"]

    def test_failed_rewrite_leaves_no_complete_sidecar(self, tmp_path, corpus, monkeypatch):
        out = tmp_path / "model.json"
        args = ["train-ngram", "--input", corpus, "--out", str(out), *TRAIN_FLAGS]
        assert main(args) == 0
        assert json.loads((tmp_path / "model.json.meta.json").read_text())["complete"] is True

        def torn_save(self, path):
            Path(path).write_bytes(b'{"format":')
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(NGramModel, "save", torn_save)
        assert main(args) == 2
        assert not (tmp_path / "model.json.meta.json").exists()

    def test_full_disk_keeps_the_earlier_model(self, tmp_path, corpus, monkeypatch):
        out = tmp_path / "model.json"
        args = ["train-ngram", "--input", corpus, "--out", str(out), *TRAIN_FLAGS]
        assert main(args) == 0
        earlier = out.read_bytes()
        fill_disk_after(monkeypatch, 20, "model.json")
        assert main([*args, "--order", "3"]) == 2
        assert out.read_bytes() == earlier
        assert NGramModel.load(out).order == 2
        assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl", "model.json"]

    def test_model_bytes_follow_neither_hash_seed_nor_document_order(self, tmp_path):
        # Training numbers each document's new tokens in set order, which
        # moves with PYTHONHASHSEED; the model file must not.
        lines = corpus_lines(generate_testset(PINNED_SPEC).docs)
        forward = write_lines(tmp_path / "forward.jsonl", lines)
        backward = write_lines(tmp_path / "backward.jsonl", lines[::-1])
        digests = set()
        for hash_seed, corpus in (("1", forward), ("2", forward), ("1", backward)):
            out = tmp_path / "model.bin"
            cmd = [
                sys.executable, "-m", "longdep.cli", "train-ngram", "--input", corpus,
                "--out", str(out), "--order", "3", "--k", "0.01",
            ]
            env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
            done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests == {PINNED_MODEL_SHA256}


class TestScore:
    def test_scores_corpus_and_reports_outcomes(self, corpus, model, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir) == 0
        lines = (out_dir / "reports.jsonl").read_text().splitlines()
        rows = [json.loads(l) for l in lines]
        assert len(rows) == 9
        statuses = {r["doc_id"]: r["status"] for r in rows}
        assert statuses["tiny"] == "excluded"
        assert all(v == "scored" for k, v in statuses.items() if k != "tiny")
        scored = [r for r in rows if r["status"] == "scored"]
        assert all(r["mode"] == "exact" for r in scored)
        assert len({r["config_hash"] for r in scored}) == 1
        assert "scored=8 excluded=1" in capsys.readouterr().out

    def test_a_score_that_is_not_finite_fails_its_document(self, corpus, model, tmp_path):
        # Eight segments under alpha=1e308: the gated pairwise values
        # add up past the largest float.
        out_dir = tmp_path / "out"
        extra = ["--segment-len", "3", "--truncate-len", "24", "--alpha", "1e308",
                 "--dsp-variant", "none"]
        assert run_score(corpus, model, out_dir, extra) == 4
        text = (out_dir / "reports.jsonl").read_text()
        assert "Infinity" not in text
        rows = [json.loads(line) for line in text.splitlines()]
        reasons = {row["status"]: row["reason"] for row in rows if row["doc_id"] != "tiny"}
        assert list(reasons) == ["failed"] and reasons["failed"].endswith("which is not finite")

    def test_rerun_is_byte_identical(self, corpus, model, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_score(corpus, model, a) == 0
        assert run_score(corpus, model, b) == 0
        assert (a / "reports.jsonl").read_bytes() == (b / "reports.jsonl").read_bytes()

    def test_full_disk_leaves_no_torn_meta_sidecar(self, corpus, model, tmp_path, monkeypatch):
        out_dir = tmp_path / "out"
        fill_disk_after(monkeypatch, 10, "reports.jsonl.meta.json")
        assert run_score(corpus, model, out_dir) == 2
        assert sorted(os.listdir(out_dir)) == ["reports.jsonl"]

    def test_rows_are_the_outcomes_to_row(self, corpus, model, tmp_path):
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir) == 0
        cfg = resolve_config({"segment_len": 4, "truncate_len": 32, "mode": "exact"}).lds
        outcomes = list(score_corpus(ingest(corpus), NGramBackend(NGramModel.load(model)), cfg))
        assert {o.status for o in outcomes} == {"scored", "excluded"}
        lines = (out_dir / "reports.jsonl").read_text().splitlines()
        assert lines == [canonical_dumps(o.to_row()) for o in outcomes]

    def test_killed_run_keeps_finished_rows_and_no_sidecar(self, corpus, model, tmp_path):
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir) == 0
        reports = out_dir / "reports.jsonl"
        meta = out_dir / "reports.jsonl.meta.json"
        full_rows = reports.read_bytes().splitlines(keepends=True)
        assert json.loads(meta.read_text())["complete"] is True
        cmd = [
            sys.executable, "-c", KILL_ON_FOURTH_DOCUMENT, "score", "--input", corpus,
            "--backend", f"ngram:{model}", "--out-dir", str(out_dir), *SCORE_FLAGS,
        ]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == -signal.SIGKILL, done.stderr
        assert reports.read_bytes() == b"".join(full_rows[:3])
        assert not meta.exists()

    def test_emit_pairs_writes_sidecars(self, corpus, model, tmp_path):
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir, extra=["--emit-pairs"]) == 0
        sidecars = sorted((out_dir / "pairs").iterdir())
        assert len(sidecars) == 8
        payload = json.loads(sidecars[0].read_text())
        row = json.loads((out_dir / "reports.jsonl").read_text().splitlines()[0])
        assert {k: payload[k] for k in row if k != "status"} == {
            k: v for k, v in row.items() if k != "status"
        }
        assert len(payload["pairs"]) == payload["pair_count"]
        assert payload["pairs"][0] == [1, 0, payload["pairs"][0][2]]
        assert [t for t, _ in payload["dsp"]] == list(range(1, payload["n_segments"]))
        assert set(payload["lds_config"]) >= {"tau", "alpha", "dsp_variant"}

    def test_ids_with_one_long_prefix_keep_their_own_sidecars(self, model, tmp_path, capsys):
        # Both ids give the same first 80 safe characters.
        ids = [f"https://example.com/{'a' * 70}/{n}" for n in (19649, 35476)]
        corpus = write_lines(tmp_path / "c.jsonl", [record_line(doc_id) for doc_id in ids])
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir, extra=["--emit-pairs"]) == 0
        assert "scored=2 " in capsys.readouterr().out
        sidecars = [json.loads(p.read_text()) for p in (out_dir / "pairs").iterdir()]
        assert sorted(p["doc_id"] for p in sidecars) == ids

    def test_rerun_clears_stale_pair_sidecars(self, corpus, model, tmp_path):
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir, extra=["--emit-pairs"]) == 0
        assert len(list((out_dir / "pairs").iterdir())) == 8
        small = str(write_corpus(tmp_path / "small.jsonl", n_docs=3))
        assert run_score(small, model, out_dir, extra=["--emit-pairs"]) == 0
        rows = [json.loads(line) for line in (out_dir / "reports.jsonl").read_text().splitlines()]
        sidecars = [json.loads(p.read_text()) for p in (out_dir / "pairs").iterdir()]
        scored = sorted(r["doc_id"] for r in rows if r["status"] == "scored")
        assert sorted(p["doc_id"] for p in sidecars) == scored == ["d000", "d001", "d002"]

    def test_rerun_clears_partial_pair_sidecars(self, corpus, model, tmp_path):
        # A run killed while writing d007's sidecar leaves its .partial.
        pairs = tmp_path / "out" / "pairs"
        assert run_score(corpus, model, tmp_path / "out", extra=["--emit-pairs"]) == 0
        names = sorted(os.listdir(pairs))
        (pairs / f"{names[-1]}.partial").write_text('{"doc_id":')
        small = str(write_corpus(tmp_path / "small.jsonl", n_docs=3))
        assert run_score(small, model, tmp_path / "out", extra=["--emit-pairs"]) == 0
        assert sorted(os.listdir(pairs)) == names[:3]

    def test_unreadable_input_is_a_usage_error(self, corpus, model, tmp_path, caplog):
        # A file given as a plain-dir input cannot be listed.
        code = run_score(corpus, model, tmp_path / "o", extra=["--input-format", "plain-dir"])
        assert code == 2
        assert corpus in caplog.text
        meta = json.loads((tmp_path / "o" / "reports.jsonl.meta.json").read_text())
        assert meta["complete"] is False

    def test_model_trained_on_other_tokens_is_refused(self, corpus, tmp_path, caplog):
        byte_model = tmp_path / "byte-model.bin"
        train = ["train-ngram", "--input", corpus, "--out", str(byte_model), "--tokenizer", "byte"]
        assert main([*train, *TRAIN_FLAGS]) == 0
        code = run_score(corpus, byte_model, tmp_path / "o", extra=["--tokenizer", "whitespace"])
        assert code == 2
        assert "'byte'" in caplog.text and "'whitespace'" in caplog.text
        assert not (tmp_path / "o" / "reports.jsonl").exists()

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("json list", "not a longdep-ngram model file"),
            ("bare version 1 header", "retrain with `longdep train-ngram`"),
            ("version 1 file", "retrain with `longdep train-ngram`"),
            ("truncated body", "truncated or corrupt"),
            ("wrong format", "not a longdep-ngram model file"),
            ("wrong version", "unsupported model version 3"),
        ],
    )
    def test_malformed_model_file_is_a_usage_error(
        self, corpus, model, tmp_path, caplog, damage, message
    ):
        path = tmp_path / "bad-model.bin"
        line, _, body = open(model, "rb").read().partition(b"\n")
        header = json.loads(line)
        if damage == "json list":
            path.write_text("[1,2]\n")
        elif damage == "bare version 1 header":
            path.write_text('{"format":"longdep-ngram","version":1}\n')
        elif damage == "version 1 file":
            v1 = {**header, "version": 1, "counts": [[[], [["w1", 3]]]]}
            del v1["entries"]
            path.write_text(json.dumps(v1, sort_keys=True, separators=(",", ":")) + "\n")
        elif damage == "truncated body":
            path.write_bytes(line + b"\n" + body[:-8])
        else:
            field = "format" if damage == "wrong format" else "version"
            header[field] = "other" if field == "format" else 3
            path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
        assert run_score(corpus, path, tmp_path / "o") == 2
        assert message in caplog.text

    def test_meta_sidecar_counts_skipped_input_lines(self, corpus, model, tmp_path):
        with open(corpus, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
            handle.write(json.dumps({"id": "d000", "text": "a duplicate id"}) + "\n")
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir) == 0
        meta = json.loads((out_dir / "reports.jsonl.meta.json").read_text())
        assert meta["ingest"] == {
            "read": 11,
            "yielded": 9,
            "skipped_malformed": 1,
            "skipped_duplicate_id": 1,
        }

    @pytest.mark.parametrize("field", ["id", "text", "source"])
    def test_lone_surrogate_record_is_skipped(self, corpus, model, tmp_path, field):
        record = {"id": "bad", "text": " ".join(["w1"] * 24), "source": "web"}
        record[field] += "\ud800"
        with open(corpus, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir) == 0
        rows = (out_dir / "reports.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 9
        meta = json.loads((out_dir / "reports.jsonl.meta.json").read_text())
        assert meta["complete"] is True
        assert meta["ingest"]["skipped_malformed"] == 1

    def test_line_that_is_not_utf8_is_skipped(self, model, tmp_path):
        lines = [record_line(f"d{i}") for i in range(4)]
        corpus = write_lines(tmp_path / "c.jsonl", [*lines[:3], NOT_UTF8_LINE, lines[3]])
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir) == 0
        rows = [json.loads(line) for line in (out_dir / "reports.jsonl").read_text().splitlines()]
        assert [(row["doc_id"], row["status"]) for row in rows] == [
            (f"d{i}", "scored") for i in range(4)
        ]
        meta = json.loads((out_dir / "reports.jsonl.meta.json").read_text())
        assert meta["complete"] is True
        assert meta["ingest"] == {
            "read": 5, "yielded": 4, "skipped_malformed": 1, "skipped_duplicate_id": 0
        }

    @pytest.mark.parametrize("input_format", ["jsonl", "plain-dir"])
    def test_document_with_no_tokens_is_excluded(self, model, tmp_path, input_format):
        # A whitespace-only JSONL text, or an empty plain-dir file, comes
        # first; the documents after it are still scored.
        if input_format == "jsonl":
            blank = json.dumps({"id": "blank", "text": " \t \n ", "source": "web"})
            lines = [blank.encode("utf-8")] + [record_line(f"d{i}") for i in range(3)]
            corpus = write_lines(tmp_path / "c.jsonl", lines)
        else:
            corpus = tmp_path / "docs"
            corpus.mkdir()
            (corpus / "blank").write_bytes(b"")
            for i in range(3):
                (corpus / f"d{i}").write_text(TEXT)
        out_dir = tmp_path / "out"
        assert run_score(str(corpus), model, out_dir, extra=["--input-format", input_format]) == 0
        rows = [json.loads(line) for line in (out_dir / "reports.jsonl").read_text().splitlines()]
        assert [(row["doc_id"], row["status"]) for row in rows] == [
            ("blank", "excluded"), ("d0", "scored"), ("d1", "scored"), ("d2", "scored")
        ]
        assert rows[0]["reason"] == (
            "document 'blank' has 0 tokens, needs at least 8 for two segments of 4"
        )
        meta = json.loads((out_dir / "reports.jsonl.meta.json").read_text())
        assert (meta["complete"], meta["scored"], meta["excluded"]) == (True, 3, 1)

    def test_pretokenized_record_is_scored(self, corpus, model, tmp_path):
        record = {"id": "pre", "text": "", "tokens": [f"w{j % 11}" for j in range(24)]}
        with open(corpus, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir) == 0
        rows = [json.loads(line) for line in (out_dir / "reports.jsonl").read_text().splitlines()]
        (row,) = [row for row in rows if row["doc_id"] == "pre"]
        assert row["status"] == "scored" and row["n_segments"] == 6

    def test_workers_above_one_are_logged_as_sequential(self, corpus, model, tmp_path):
        def stderr_of(*flags):
            cmd = [
                sys.executable, "-m", "longdep.cli", *flags, "score", "--input", corpus,
                "--backend", f"ngram:{model}", "--out-dir", str(tmp_path / "out"),
                "--workers", "2", *SCORE_FLAGS,
            ]
            env = {**os.environ, "PYTHONPATH": str(SRC)}
            done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            return done.stderr

        line = "workers=2: documents are scored one at a time"
        assert line in stderr_of("-v")
        assert line not in stderr_of()

    def test_verbose_logs_under_a_host_root_handler(self, corpus, model, tmp_path, capsys):
        # A host program that set up the root logger before calling main:
        # -v still logs, each line once, however often main runs.
        def score(*flags):
            return main([
                *flags, "score", "--input", corpus, "--backend", f"ngram:{model}",
                "--out-dir", str(tmp_path / "out"), "--workers", "2", *SCORE_FLAGS,
            ])

        root = logging.getLogger()
        host = logging.StreamHandler(io.StringIO())
        root.addHandler(host)
        try:
            capsys.readouterr()
            assert score("-v") == score("-v") == score() == 0
            err = capsys.readouterr().err
        finally:
            root.removeHandler(host)
        assert err.count("INFO longdep: workers=2: documents are scored one at a time") == 2

    def test_show_config_prints_resolved_profile(self, capsys):
        code = main(["score", "--show-config", "--tau", "0.2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"] == "reference"
        assert payload["config"]["tau"] == 0.2
        assert payload["config"]["segment_len"] == 128
        assert payload["hash"]

    def test_flags_override_config_file(self, tmp_path, capsys):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"tau": 0.5, "alpha": 2.0}))
        code = main(
            ["score", "--show-config", "--config", str(config), "--tau", "0.9"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["tau"] == 0.9
        assert payload["config"]["alpha"] == 2.0

    def test_unknown_config_file_key_rejected(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"tau": 0.5, "typo_key": 1}))
        assert main(["score", "--show-config", "--config", str(config)]) == 2

    @pytest.mark.parametrize(
        "values",
        [
            {"workers": "2"},
            {"fraction": "0.5"},
            {"order": "3"},
            {"seed": "0"},
            {"tau": True},
            {"workers": 2.0},
        ],
    )
    def test_config_file_value_of_wrong_type_rejected(self, tmp_path, values):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps(values))
        assert main(["score", "--show-config", "--config", str(config)]) == 2

    @pytest.mark.parametrize(
        "values",
        [
            {"tokenizer": "bpe"},
            {"input_format": "csv"},
            {"order": 9},
            {"k": -1},
            {"workers": 0},
            {"fraction": 1.5},
        ],
    )
    def test_show_config_refuses_a_value_every_command_refuses(self, tmp_path, capsys, values):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps(values))
        assert main(["score", "--show-config", "--config", str(config)]) == 2
        assert capsys.readouterr().out == ""

    def test_int_for_float_key_hashes_like_the_flag(self, tmp_path, capsys):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"tau": 0}))
        assert main(["score", "--show-config", "--config", str(config)]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert main(["score", "--show-config", "--tau", "0"]) == 0
        assert json.loads(capsys.readouterr().out) == from_file

    def test_show_config_round_trips_through_config_file(self, tmp_path, capsys):
        flags = ["--tau", "0.2", "--mode", "exact", "--workers", "2", "--backend", "ngram:m"]
        assert main(["score", "--show-config", *flags]) == 0
        shown = json.loads(capsys.readouterr().out)
        config = tmp_path / "conf.json"
        config.write_text(json.dumps(shown["config"]))
        assert main(["score", "--show-config", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out) == shown

    def test_crashed_run_is_marked_incomplete(self, corpus, model, tmp_path, monkeypatch):
        from longdep.ngram import NGramBackend

        real_score = NGramBackend.score
        calls = []

        def crashing_score(self, target, context=None):
            calls.append(1)
            if len(calls) > 37:  # 5 calls per document: in the eighth of eight
                raise RuntimeError("scorer blew up")
            return real_score(self, target, context)

        monkeypatch.setattr(NGramBackend, "score", crashing_score)
        out_dir = tmp_path / "out"
        with pytest.raises(RuntimeError):
            run_score(corpus, model, out_dir)
        rows = (out_dir / "reports.jsonl").read_text().splitlines()
        assert 0 < len(rows) < 9
        meta = json.loads((out_dir / "reports.jsonl.meta.json").read_text())
        assert meta["complete"] is False


class TestSelect:
    @pytest.fixture()
    def reports(self, corpus, model, tmp_path):
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir) == 0
        return str(out_dir / "reports.jsonl")

    @pytest.mark.parametrize("global_ranking", [False, True])
    def test_a_group_of_mixed_segment_counts_warns(self, tmp_path, capsys, global_ranking):
        rows = [
            {"status": "scored", "doc_id": f"d{i}", "source": source, "n_segments": n,
             "mode": "exact", "lds": float(i), "pair_count": n * (n - 1) // 2,
             "gated_count": 1, "config_hash": "cfg"}
            for i, (source, n) in enumerate(
                [("web", 4), ("web", 8), ("web", 4), ("book", 6), ("book", 6)])
        ]
        reports = tmp_path / "reports.jsonl"
        reports.write_text("".join(json.dumps(row) + "\n" for row in rows))
        flags = ["--global-ranking"] if global_ranking else []
        sel = tmp_path / "sel"
        assert main(["select", "--reports", str(reports), "--out-dir", str(sel), *flags]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if "mixes" in line]
        group, counts = ("'all'", "[4, 6, 8]") if global_ranking else ("'web'", "[4, 8]")
        assert len(warnings) == 1
        assert warnings[0].startswith("WARNING") and group in warnings[0] and counts in warnings[0]
        uniform = tmp_path / "uniform.jsonl"
        uniform.write_text("".join(json.dumps(row) + "\n" for row in rows[3:]))
        assert main(["select", "--reports", str(uniform), "--out-dir", str(tmp_path / "u"),
                     *flags]) == 0
        assert "mixes" not in capsys.readouterr().err

    def test_prolong_manifest(self, reports, tmp_path, capsys):
        sel = tmp_path / "sel"
        code = main(
            ["select", "--reports", reports, "--out-dir", str(sel), "--fraction", "0.5"]
        )
        assert code == 0
        manifest = json.loads((sel / "manifest.json").read_text())
        assert manifest["strategy"] == "prolong"
        assert manifest["fraction"] == 0.5
        ids = (sel / "retained_ids.txt").read_text().split()
        assert len(ids) == 4
        assert [row["doc_id"] for row in manifest["excluded"]] == ["tiny"]
        assert "retained=4/8" in capsys.readouterr().out

    def test_a_document_listed_twice_is_refused(self, reports, tmp_path, capsys):
        twice = tmp_path / "twice.jsonl"
        rows = Path(reports).read_text()
        twice.write_text(rows + rows)
        first = next(row["doc_id"] for row in map(json.loads, rows.splitlines())
                     if row["status"] == "scored")
        sel = tmp_path / "sel"
        code = main(["select", "--reports", str(twice), "--out-dir", str(sel),
                     "--fraction", "0.5"])
        assert code == 2
        assert f"document {first!r} is listed on more than one row" in capsys.readouterr().err
        assert not sel.exists()

    def test_full_strategy_ignores_fraction(self, reports, tmp_path):
        sel = tmp_path / "sel"
        code = main(
            [
                "select",
                "--reports",
                reports,
                "--out-dir",
                str(sel),
                "--strategy",
                "full",
                "--fraction",
                "0.25",
            ]
        )
        assert code == 0
        ids = (sel / "retained_ids.txt").read_text().split()
        assert len(ids) == 8

    def test_rerun_is_byte_identical(self, reports, tmp_path):
        a, b = tmp_path / "sa", tmp_path / "sb"
        args = ["select", "--reports", reports, "--fraction", "0.5", "--seed", "3"]
        assert main([*args, "--out-dir", str(a)]) == 0
        assert main([*args, "--out-dir", str(b)]) == 0
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_missing_reports_file(self, tmp_path):
        code = main(
            ["select", "--reports", str(tmp_path / "nope.jsonl"), "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_complete_input_gives_a_complete_manifest(self, reports, tmp_path):
        sel = tmp_path / "sel"
        assert main(["select", "--reports", reports, "--out-dir", str(sel)]) == 0
        meta = json.loads((sel / "manifest.json.meta.json").read_text())
        assert meta["complete"] is True

    def test_failed_rewrite_leaves_no_complete_sidecar(self, reports, tmp_path, monkeypatch):
        sel = tmp_path / "sel"
        assert main(["select", "--reports", reports, "--out-dir", str(sel)]) == 0
        assert json.loads((sel / "manifest.json.meta.json").read_text())["complete"] is True

        def torn_write(path, obj):
            Path(path).write_text(canonical_dumps(obj)[:11])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("longdep.cli.write_canonical", torn_write)
        args = ["select", "--reports", reports, "--out-dir", str(sel), "--fraction", "0.25"]
        assert main(args) == 2
        assert len((sel / "manifest.json").read_text()) == 11
        assert not (sel / "manifest.json.meta.json").exists()

    def test_full_disk_keeps_the_earlier_retained_ids(self, reports, tmp_path, monkeypatch):
        sel = tmp_path / "sel"
        assert main(["select", "--reports", reports, "--out-dir", str(sel)]) == 0
        earlier = (sel / "retained_ids.txt").read_text()
        assert len(earlier.split()) == 4
        fill_disk_after(monkeypatch, 3, "retained_ids.txt")
        args = ["select", "--reports", reports, "--out-dir", str(sel), "--fraction", "0.25"]
        assert main(args) == 2
        assert (sel / "retained_ids.txt").read_text() == earlier
        assert not (sel / "manifest.json.meta.json").exists()
        assert sorted(os.listdir(sel)) == ["manifest.json", "retained_ids.txt"]

    @pytest.mark.parametrize("name, room", [("manifest.json", 50), ("retained_ids.txt", 3)])
    def test_full_disk_keeps_both_earlier_files(self, reports, tmp_path, monkeypatch, name, room):
        sel = tmp_path / "sel"
        assert main(["select", "--reports", reports, "--out-dir", str(sel)]) == 0
        earlier = {f: (sel / f).read_bytes() for f in ("manifest.json", "retained_ids.txt")}
        fill_disk_after(monkeypatch, room, name)
        args = ["select", "--reports", reports, "--out-dir", str(sel), "--fraction", "0.25"]
        assert main(args) == 2
        assert {f: (sel / f).read_bytes() for f in earlier} == earlier
        assert sorted(os.listdir(sel)) == ["manifest.json", "retained_ids.txt"]

    @pytest.mark.parametrize(
        "row",
        [
            '{"status": "scored", "doc_id": "a"}',
            '{"status": "failed"}',
            "[1, 2]",
            '{"status": "weird", "doc_id": "b", "source": "s", "reason": "x"}',
        ],
    )
    def test_malformed_row_is_a_usage_error(self, reports, tmp_path, caplog, row):
        lines = Path(reports).read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([*lines, row]) + "\n")
        assert main(["select", "--reports", str(bad), "--out-dir", str(tmp_path / "sel")]) == 2
        assert f"{bad}:{len(lines) + 1}" in caplog.text

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lds", "high"),
            ("lds", float("nan")),
            ("lds", True),
            ("doc_id", 7),
            ("source", None),
            ("mode", 1),
            ("config_hash", ["h"]),
            ("n_segments", "4"),
            ("pair_count", 2.0),
            ("gated_count", True),
        ],
    )
    def test_mistyped_field_is_a_usage_error(self, reports, tmp_path, caplog, field, value):
        lines = Path(reports).read_text().splitlines()
        row = json.loads(lines[1])
        assert row["status"] == "scored"
        row[field] = value
        lines[1] = json.dumps(row)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["select", "--reports", str(bad), "--out-dir", str(tmp_path / "sel")]) == 2
        assert f"{bad}:2" in caplog.text and field in caplog.text

    @pytest.mark.parametrize("field, value", [("doc_id", 5), ("source", 7), ("reason", ["no"])])
    def test_mistyped_unscored_field_is_a_usage_error(
        self, reports, tmp_path, caplog, field, value
    ):
        lines = Path(reports).read_text().splitlines()
        row = json.loads(lines[-1])
        assert row["status"] == "excluded"
        row[field] = value
        lines[-1] = json.dumps(row)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["select", "--reports", str(bad), "--out-dir", str(tmp_path / "sel")]) == 2
        assert f"{bad}:{len(lines)}" in caplog.text and field in caplog.text

    @pytest.mark.parametrize("sidecar", ["missing", "incomplete", "unreadable"])
    def test_input_not_marked_complete_gives_an_incomplete_manifest(
        self, reports, tmp_path, capsys, sidecar
    ):
        meta_path = Path(reports + ".meta.json")
        if sidecar == "missing":
            meta_path.unlink()
        elif sidecar == "incomplete":
            meta = json.loads(meta_path.read_text())
            meta["complete"] = False
            meta_path.write_text(json.dumps(meta))
        else:
            meta_path.write_text("{not json")
        sel = tmp_path / "sel"
        assert main(["select", "--reports", reports, "--out-dir", str(sel)]) == 0
        assert "marked complete: false" in capsys.readouterr().err
        meta = json.loads((sel / "manifest.json.meta.json").read_text())
        assert meta["complete"] is False


OLD_SIDECAR = {
    "doc_id": "d", "n_segments": 4, "mode": "exact", "lds": 0.5, "pair_count": 1,
    "gated_count": 1, "config_hash": "h", "source": "",
    "pairs": [{"target": 1, "source": 0, "dst": 0.5, "ddi": 1 / 3, "dsp": 0.0,
               "pairwise": 0.0, "gated": True}],
}


def _with(key, value):
    return lambda sidecar: {**sidecar, key: value}


def _without(key):
    return lambda sidecar: {k: v for k, v in sidecar.items() if k != key}


def _first_pair(value):
    return lambda sidecar: {**sidecar, "pairs": [value, *sidecar["pairs"][1:]]}


def _config_with(key, value):
    return lambda sidecar: {**sidecar, "lds_config": {**sidecar["lds_config"], key: value}}


def _recounted(damage):
    """``damage``, then the row's pair_count, gated_count and lds
    recounted from the damaged columns, so that the damage is the only
    fault left."""
    def apply(sidecar):
        sidecar = damage(sidecar)
        columns = pair_columns(sidecar["pairs"], sidecar["dsp"])
        cfg = LdsConfig.from_dict(sidecar["lds_config"])
        *_, gated, lds = _accumulate(columns, sidecar["n_segments"], cfg)
        return {**sidecar, "pair_count": len(columns.targets),
                "gated_count": int(gated.sum()), "lds": lds}
    return apply


# Each makes a damaged copy of a sidecar written by `score --emit-pairs`.
DAMAGED_SIDECARS = {
    "old pair objects": lambda sidecar: OLD_SIDECAR,
    "no doc_id": _without("doc_id"),
    "no pairs": _without("pairs"),
    "n_segments a string": _with("n_segments", "4"),
    "n_segments below 2": _with("n_segments", 1),
    "n_segments beyond int64": _with("n_segments", 2**70),
    "n_segments of a trillion": _with("n_segments", 10**12),
    "pair too short": _first_pair([1, 0]),
    "pair a string": _first_pair("1,0,0.5"),
    "dst a string": _first_pair([1, 0, "x"]),
    "dst an int": _first_pair([1, 0, 1]),
    "dst not finite": _first_pair([1, 0, float("inf")]),
    "target a float": _first_pair([1.0, 0, 0.5]),
    "source a bool": _first_pair([1, False, 0.5]),
    "pair outside the grid": _first_pair([1, 1, 0.5]),
    "target beyond int64": _first_pair([2**70, 0, 0.5]),
    "no dsp": _without("dsp"),
    "a target without a dsp row": lambda sidecar: {**sidecar, "dsp": sidecar["dsp"][1:]},
    "dsp row mistyped": lambda sidecar: {**sidecar, "dsp": [[1, "x"], *sidecar["dsp"][1:]]},
    "no lds_config": _without("lds_config"),
    "lds_config a list": _with("lds_config", []),
    "lds_config key missing": lambda sidecar: {
        **sidecar, "lds_config": {k: v for k, v in sidecar["lds_config"].items() if k != "tau"}
    },
    "lds_config key unknown": _config_with("workers", 1),
    "lds_config alpha a string": _config_with("alpha", "1"),
    "lds_config tau negative": _config_with("tau", -1.0),
    "lds_config another fingerprint": _config_with("tau", 0.5),
    "pair_count one too many": lambda sidecar: {**sidecar, "pair_count": sidecar["pair_count"] + 1},
    "gated_count three too many": lambda sidecar: {
        **sidecar, "gated_count": sidecar["gated_count"] + 3
    },
    "lds doubled": lambda sidecar: {**sidecar, "lds": sidecar["lds"] * 2},
    "mode sampled on exact pairs": _with("mode", "sampled"),
    "a pair listed twice": _recounted(lambda sidecar: {
        **sidecar, "pairs": [*sidecar["pairs"], [*sidecar["pairs"][-1][:2], 0.9]]
    }),
    "a target with two dsp rows": _recounted(lambda sidecar: {
        **sidecar, "dsp": [*sidecar["dsp"][:-1], [sidecar["dsp"][-1][0], 0.123], sidecar["dsp"][-1]]
    }),
    "a dsp above 1": _recounted(lambda sidecar: {
        **sidecar, "dsp": [*sidecar["dsp"][:-1], [sidecar["dsp"][-1][0], 7.5]]
    }),
    "a dsp below 0": _recounted(lambda sidecar: {
        **sidecar, "dsp": [*sidecar["dsp"][:-1], [sidecar["dsp"][-1][0], -0.5]]
    }),
    "a dst above 1": _recounted(lambda sidecar: {
        **sidecar, "pairs": [*sidecar["pairs"][:-1], [*sidecar["pairs"][-1][:2], 5.0]]
    }),
}


class TestHeatmap:
    def test_renders_from_sidecar(self, corpus, model, tmp_path):
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir, extra=["--emit-pairs"]) == 0
        sidecar = sorted((out_dir / "pairs").iterdir())[0]
        image = tmp_path / "doc.ppm"
        csv = tmp_path / "doc.csv"
        code = main(
            [
                "heatmap",
                "--pairs",
                str(sidecar),
                "--out-image",
                str(image),
                "--out-csv",
                str(csv),
            ]
        )
        assert code == 0
        assert image.read_bytes().startswith(b"P6\n")
        assert csv.read_text().splitlines()[1] == "i,j,dst"

    def test_default_paths_derive_from_sidecar(self, corpus, model, tmp_path):
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir, extra=["--emit-pairs"]) == 0
        sidecar = sorted((out_dir / "pairs").iterdir())[0]
        assert main(["heatmap", "--pairs", str(sidecar)]) == 0
        base = os.path.splitext(str(sidecar))[0]
        assert os.path.exists(base + ".ppm")
        assert os.path.exists(base + ".csv")

    def test_full_disk_keeps_the_earlier_image_and_csv(self, corpus, model, tmp_path, monkeypatch):
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir, extra=["--emit-pairs"]) == 0
        sidecar = sorted((out_dir / "pairs").iterdir())[0]
        args = ["heatmap", "--pairs", str(sidecar), "--out-image", str(tmp_path / "h.ppm"),
                "--out-csv", str(tmp_path / "h.csv")]
        assert main(args) == 0
        earlier = {f: (tmp_path / f).read_bytes() for f in ("h.ppm", "h.csv")}
        assert len(earlier["h.csv"]) > 50
        fill_disk_after(monkeypatch, 50, "h.csv")
        assert main([*args, "--value", "pairwise"]) == 2
        assert {f: (tmp_path / f).read_bytes() for f in earlier} == earlier
        assert not list(tmp_path.glob("*.partial"))

    def test_missing_sidecar_names_the_fix(self, tmp_path, caplog):
        code = main(["heatmap", "--pairs", str(tmp_path / "nope.json")])
        assert code == 2
        assert "--emit-pairs" in caplog.text

    def test_sidecar_without_pairs_rejected(self, corpus, model, tmp_path, caplog):
        out_dir = tmp_path / "out"
        assert run_score(corpus, model, out_dir, extra=["--emit-pairs"]) == 0
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"doc_id": "d", "n_segments": 4, "pairs": []}))
        assert main(["heatmap", "--pairs", str(bare)]) == 2
        # A sidecar whose row agrees with its empty columns is read, and
        # then refused by the renderer.
        sidecar = json.loads(sorted((out_dir / "pairs").iterdir())[0].read_text())
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(
            {**sidecar, "pairs": [], "dsp": [], "pair_count": 0, "gated_count": 0, "lds": 0.0}
        ))
        assert main(["heatmap", "--pairs", str(empty)]) == 2
        assert "holds no pairs" in caplog.text
        assert [p.name for p in tmp_path.glob("empty.*")] == ["empty.json"]

    @pytest.mark.parametrize(
        "content",
        [
            [1, 2],
            {"doc_id": "d", "n_segments": 4, "pairs": [{"target": 1, "source": 0}]},
            {"doc_id": "d", "n_segments": 4, "pairs": [[1, 0]]},
            {"pairs": [{"target": 1, "source": 0, "dst": 0.5, "ddi": 1.0, "dsp": 1.0,
                        "pairwise": 0.5, "gated": False}]},
            *(pytest.param(damage, id=name) for name, damage in DAMAGED_SIDECARS.items()),
        ],
    )
    def test_malformed_sidecar_is_a_usage_error(self, corpus, model, tmp_path, caplog, content):
        if callable(content):
            out_dir = tmp_path / "out"
            assert run_score(corpus, model, out_dir, extra=["--emit-pairs"]) == 0
            content = content(json.loads(sorted((out_dir / "pairs").iterdir())[0].read_text()))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        assert main(["heatmap", "--pairs", str(bad)]) == 2
        assert str(bad) in caplog.text

    def test_old_sidecar_names_the_fix(self, tmp_path, caplog):
        old = tmp_path / "old.json"
        old.write_text(json.dumps(OLD_SIDECAR))
        assert main(["heatmap", "--pairs", str(old)]) == 2
        assert "score --emit-pairs" in caplog.text


def wide_dst_text(i):
    # Doc i's phrase recurs after noise, so some sources help their
    # targets and others hurt them: dst spans about -0.93 to 0.51.
    phrase = [f"p{(i * 3 + k * k) % 13}" for k in range(8)]
    noise = [f"n{(i * 11 + k * 7 + k * k * 5) % 29}" for k in range(24)]
    return " ".join(phrase + noise[:12] + phrase + noise[12:] + phrase[::-1] + phrase)


# sha256 of what `score --emit-pairs` and `heatmap` write for the corpus
# of ``wide_dst_text``, by file name.
CLI_PAIR_SHA256 = {
    "doc0-f91335dfc8fb48175d98bdcf105519cd6cbb03985ee72762e05a46444d732e65.json":
        "c1580c7d7f869e7def7d9544205411b9b7b3ab398cfbd773341695595f367e6e",
    "doc1-c63ebdcbe00c06b7d93143056be2bb37d7edc77c5076c1dd3b1c9931f36ddb8a.json":
        "8cfeac57af74f519b318731d1447e6bd132d6fad3c51c15095f599a273df2d48",
    "doc2-7897a2d21d9787e908f88cbda8d72101023da9866859ec8827d80467188c143e.json":
        "3da543e938daeda5ab51f4ce6259d95457ee95a8aee00067b92226ad0373a30b",
    "doc0.ppm": "0dc5e98af11b52b336f776912e45a3998b2e70c668956e60e08c6070b7b16f19",
    "doc0.csv": "f7e40ee72f7ce48ab383f6c1aecd2b61f8f5c4346aeb6fd2dd6cccbe2d2c0e9c",
}


@pytest.fixture(scope="module")
def wide_dst_pairs(tmp_path_factory):
    """The pair sidecars `score --mode exact --emit-pairs` writes for the
    corpus of ``wide_dst_text``, sorted by name."""
    tmp_path = tmp_path_factory.mktemp("wide")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"doc{i}", "text": wide_dst_text(i), "source": "web"}) + "\n"
        for i in range(3)
    ))
    model = str(tmp_path / "model.json")
    assert main(["train-ngram", "--input", str(corpus), "--out", model, *TRAIN_FLAGS]) == 0
    out_dir = tmp_path / "out"
    assert main(["score", "--input", str(corpus), "--backend", f"ngram:{model}",
                 "--out-dir", str(out_dir), "--segment-len", "4", "--truncate-len", "64",
                 "--mode", "exact", "--emit-pairs"]) == 0
    return sorted((out_dir / "pairs").iterdir())


def test_pair_sidecar_and_heatmap_bytes_are_pinned(tmp_path, wide_dst_pairs):
    files = list(wide_dst_pairs)
    assert main(["heatmap", "--pairs", str(files[0]), "--scale", "signed-diverging",
                 "--out-image", str(tmp_path / "doc0.ppm"),
                 "--out-csv", str(tmp_path / "doc0.csv")]) == 0
    files += [tmp_path / "doc0.ppm", tmp_path / "doc0.csv"]
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
    assert digests == CLI_PAIR_SHA256


# sha256 of the PPM and the CSV `heatmap` writes, under each option, for
# doc0's sidecar of ``wide_dst_text`` with its pairs listed in reverse.
DST_CSV = "f7e40ee72f7ce48ab383f6c1aecd2b61f8f5c4346aeb6fd2dd6cccbe2d2c0e9c"
PAIRWISE_CSV = "9880f98f9cf91bfa8b5d6fbed761a6bdccd639b2ad95f01dde2d6c9aa83ce877"
HEATMAP_OPTION_SHA256 = {
    ("linear", "dst", 1): (
        "57d821428ff38940cb3d33e5ba4f2efdcaad5875591d6c919185f3bff4c67d2c",
        DST_CSV,
    ),
    ("linear", "dst", 3): (
        "73bd2e5621716dbc17710c289e643eb055629d814641fcc375824b8914dea091",
        DST_CSV,
    ),
    ("linear", "pairwise", 1): (
        "fd5161c679f928f2c0ef5db8281f36b422592b9c2ca5bc7ad23fc88d5242cd2d",
        PAIRWISE_CSV,
    ),
    ("linear", "pairwise", 3): (
        "f665cf8eb5188d7e7742ca9f4d3c4cff1f6e268abde69453ec5816fd2b3b3d84",
        PAIRWISE_CSV,
    ),
    ("signed-diverging", "dst", 1): (
        "944c645964b2fabf7ae1c4b2a3f728cf921d806b0e3f1c1ae9a0aded52681b6c",
        DST_CSV,
    ),
    ("signed-diverging", "dst", 3): (
        "b573b66a241effc72c084fd828a36116dd7aa2d629518fc1f1bff0acd140b71c",
        DST_CSV,
    ),
    ("signed-diverging", "pairwise", 1): (
        "0871000ffd9d8d692ae44c4feef15ce55d842bdcf0aa8b15467ad4e648c206a9",
        PAIRWISE_CSV,
    ),
    ("signed-diverging", "pairwise", 3): (
        "3669ee13d66b0ddd68380adc99ce3089c2c977af9133d98128fdfc82f16d8c19",
        PAIRWISE_CSV,
    ),
}


@pytest.mark.parametrize("scale", ["linear", "signed-diverging"])
@pytest.mark.parametrize("value", ["dst", "pairwise"])
@pytest.mark.parametrize("cell_size", [1, 3])
def test_heatmap_bytes_are_pinned_for_every_option(tmp_path, wide_dst_pairs, scale, value,
                                                   cell_size):
    sidecar = json.loads(wide_dst_pairs[0].read_text())
    reversed_pairs = tmp_path / "doc0.json"
    reversed_pairs.write_text(json.dumps(
        _recounted(lambda s: {**s, "pairs": s["pairs"][::-1]})(sidecar)
    ))
    image, csv = tmp_path / "doc0.ppm", tmp_path / "doc0.csv"
    assert main(["heatmap", "--pairs", str(reversed_pairs), "--scale", scale, "--value", value,
                 "--cell-size", str(cell_size), "--out-image", str(image),
                 "--out-csv", str(csv)]) == 0
    digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (image, csv))
    assert digests == HEATMAP_OPTION_SHA256[scale, value, cell_size]


class TestBench:
    BENCH_ARGS = [
        "bench",
        "--backends",
        "oracle",
        "--sample-sizes",
        "3,10",
        "--n-positive",
        "3",
        "--n-negative",
        "3",
        "--n-segments",
        "8",
        "--segment-len",
        "8",
    ]

    def test_runs_grid_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main([*self.BENCH_ARGS, "--out", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert "oracle" in table
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "T,backend,docs_per_s,accuracy_at_k,status"
        assert len(lines) == 3

    def test_default_ngram_backend_runs_beside_the_oracle(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main([*self.BENCH_ARGS, "--backends", "ngram,oracle", "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "T,backend,docs_per_s,accuracy_at_k,status"
        assert [row.split(",")[:2] for row in rows] == [
            ["3", "ngram"], ["10", "ngram"], ["3", "oracle"], ["10", "oracle"]
        ]
        for row in rows:
            *_, accuracy, status = row.split(",")
            assert 0.0 <= float(accuracy) <= 1.0 and status == "ok"

    def test_a_failed_cell_says_why_on_stderr(self, capsys):
        code = main([*self.BENCH_ARGS, "--backends", "external:stdio://false",
                     "--sample-sizes", "3"])
        assert code == 4
        out, err = capsys.readouterr()
        assert "failed" in out
        assert (
            "ERROR longdep: bench cell external T=3 failed: scorer endpoint "
            "'stdio://false' unreachable"
        ) in err

    def test_the_csv_hash_covers_only_what_bench_reads(self, tmp_path):
        def config_hash(name, config):
            out, path = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            assert main([*self.BENCH_ARGS, "--out", str(out), "--config", str(path)]) == 0
            return json.loads((tmp_path / f"{name}.csv.meta.json").read_text())["config_hash"]

        base = config_hash("base", {})
        for name, unread in [
            ("fraction", {"fraction": 0.25}),
            ("workers", {"workers": 3}),
            ("geometry", {"segment_len": 64, "truncate_len": 8192}),
            ("budget", {"sample_size": 7, "mode": "exact"}),
        ]:
            assert config_hash(name, unread) == base, name
        for name, read in [("tau", {"tau": 0.2}), ("order", {"order": 2}), ("k", {"k": 0.5})]:
            assert config_hash(name, read) != base, name

    def test_unknown_backend_rejected(self):
        assert main(["bench", "--backends", "quantum"]) == 2

    def test_full_disk_keeps_the_earlier_csv(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "bench.csv"
        assert main([*self.BENCH_ARGS, "--out", str(out)]) == 0
        earlier = out.read_text()
        fill_disk_after(monkeypatch, 10, "bench.csv")
        assert main([*self.BENCH_ARGS, "--sample-sizes", "4", "--out", str(out)]) == 2
        assert out.read_text() == earlier
        assert sorted(os.listdir(tmp_path)) == ["bench.csv"]


EXTERNAL_STUB = """\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    words = req["target"].split()
    if "BOOM" in words:
        out = {"req_id": req["req_id"], "error": "poisoned document"}
    else:
        rate = -0.5 if req["context"] else -1.0
        out = {"req_id": req["req_id"], "logprob_sum": rate * len(words), "token_count": len(words)}
    sys.stdout.write(json.dumps(out) + "\\n")
    sys.stdout.flush()
"""


class TestExternalBackendIntegration:
    def _stub_endpoint(self, tmp_path, source=EXTERNAL_STUB):
        stub = tmp_path / "stub.py"
        stub.write_text(source, encoding="utf-8")
        return f"stdio://python3 {stub}"

    def _score(self, corpus, endpoint, out_dir):
        return main(
            [
                "score",
                "--input",
                str(corpus),
                "--backend",
                f"external:{endpoint}",
                "--out-dir",
                str(out_dir),
                *SCORE_FLAGS,
            ]
        )

    def test_score_closes_its_scorer(self, corpus, tmp_path):
        pid_file = tmp_path / "pid"
        source = f"import os\nopen({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        endpoint = self._stub_endpoint(tmp_path, source + EXTERNAL_STUB)
        assert self._score(corpus, endpoint, tmp_path / "out") == 0
        assert not process_alive(int(pid_file.read_text()), wait_s=1.0)

    def test_dead_stdio_scorer_stops_the_run(self, corpus, tmp_path):
        endpoint = self._stub_endpoint(tmp_path, "raise SystemExit(0)\n")
        out_dir = tmp_path / "out"
        assert self._score(corpus, endpoint, out_dir) == 3
        assert (out_dir / "reports.jsonl").read_text() == ""
        meta = json.loads((out_dir / "reports.jsonl.meta.json").read_text())
        assert meta["complete"] is False

    def test_silent_stdio_scorer_stops_the_run(self, corpus, tmp_path, monkeypatch):
        source = "import sys, time\nsys.stdin.readline()\ntime.sleep(600)\n"
        endpoint = self._stub_endpoint(tmp_path, source)
        monkeypatch.setattr(
            "longdep.cli.ExternalBackend", functools.partial(ExternalBackend, timeout=0.5)
        )
        out_dir = tmp_path / "out"
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.update(code=self._score(corpus, endpoint, out_dir)),
            daemon=True,
        )
        thread.start()
        thread.join(30.0)
        assert not thread.is_alive(), "score still blocked on a silent scorer"
        assert outcome["code"] == 3
        meta = json.loads((out_dir / "reports.jsonl.meta.json").read_text())
        assert meta["complete"] is False

    def test_scores_through_external_scorer(self, corpus, tmp_path):
        out_dir = tmp_path / "ext"
        code = main(
            [
                "score",
                "--input",
                corpus,
                "--backend",
                f"external:{self._stub_endpoint(tmp_path)}",
                "--out-dir",
                str(out_dir),
                *SCORE_FLAGS,
            ]
        )
        assert code == 0
        rows = [json.loads(l) for l in (out_dir / "reports.jsonl").read_text().splitlines()]
        assert sum(r["status"] == "scored" for r in rows) == 8

    def test_endpoint_env_fallback(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("LONGDEP_SCORER_ENDPOINT", self._stub_endpoint(tmp_path))
        out_dir = tmp_path / "ext"
        code = main(
            [
                "score",
                "--input",
                corpus,
                "--backend",
                "external",
                "--out-dir",
                str(out_dir),
                *SCORE_FLAGS,
            ]
        )
        assert code == 0

    def test_no_endpoint_anywhere_is_usage_error(self, corpus, tmp_path, monkeypatch):
        monkeypatch.delenv("LONGDEP_SCORER_ENDPOINT", raising=False)
        code = main(
            ["score", "--input", corpus, "--backend", "external", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2

    def test_partial_failure_exit_code(self, tmp_path):
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(corpus_path, n_docs=3)
        with open(corpus_path, "a", encoding="utf-8") as handle:
            boom = " ".join(["BOOM"] * 24)
            handle.write(json.dumps({"id": "poisoned", "text": boom}) + "\n")
        out_dir = tmp_path / "out"
        code = main(
            [
                "score",
                "--input",
                str(corpus_path),
                "--backend",
                f"external:{self._stub_endpoint(tmp_path)}",
                "--out-dir",
                str(out_dir),
                *SCORE_FLAGS,
            ]
        )
        assert code == 4
        rows = [json.loads(l) for l in (out_dir / "reports.jsonl").read_text().splitlines()]
        by_id = {r["doc_id"]: r["status"] for r in rows}
        assert by_id["poisoned"] == "failed"
        assert sum(s == "scored" for s in by_id.values()) == 3
        meta = json.loads((out_dir / "reports.jsonl.meta.json").read_text())
        assert meta["failed"] == 1
        assert meta["complete"] is True

    def test_unreachable_endpoint_exit_code(self, corpus, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(
            [
                "score",
                "--input",
                corpus,
                "--backend",
                f"external:tcp://127.0.0.1:{port}",
                "--out-dir",
                str(tmp_path / "o"),
                *SCORE_FLAGS,
            ]
        )
        assert code == 3

    def test_scorer_refusing_every_reconnect_stops_the_run(self, corpus, tmp_path):
        scorer = DyingScorer(answers=1)

        def kill_at_second_request():
            for _ in range(2):
                assert scorer.seen.acquire(timeout=30.0)
            scorer.kill()

        killer = threading.Thread(target=kill_at_second_request, daemon=True)
        killer.start()
        out_dir = tmp_path / "out"
        code = main(
            [
                "score",
                "--input",
                corpus,
                "--backend",
                f"external:{scorer.endpoint}",
                "--out-dir",
                str(out_dir),
                *SCORE_FLAGS,
            ]
        )
        killer.join(timeout=10.0)
        # The killer saw its two requests and shut the scorer.
        assert not killer.is_alive() and scorer.dead.is_set()
        assert code == 3
        rows = [json.loads(l) for l in (out_dir / "reports.jsonl").read_text().splitlines()]
        # The request in flight at the kill fails its document; the next
        # document cannot reconnect at all.
        assert [(r["doc_id"], r["status"]) for r in rows] == [("d000", "failed")]
        meta = json.loads((out_dir / "reports.jsonl.meta.json").read_text())
        assert meta["complete"] is False


def write_windowed_corpus(path, poisoned=True):
    """Six documents of 16 four-token segments (120 exact pairs, so
    several windows each); ``d002`` carries BOOM in its segment 7."""
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(6):
            if i == 2 and not poisoned:
                continue
            words = [f"w{(i * 7 + j * j) % 13}" for j in range(64)]
            if i == 2:
                words[30] = "BOOM"
            row = {"id": f"d{i:03d}", "text": " ".join(words), "source": "web"}
            handle.write(json.dumps(row) + "\n")
    return path


class TestWindowedScoring:
    """``score`` through the windowed client writes what the per-pair
    path writes."""

    @pytest.fixture(params=["stdio", "tcp"])
    def endpoint(self, request):
        if request.param == "stdio":
            script = Path(__file__).parent / "scripted_scorer.py"
            yield "stdio://" + shlex.join([sys.executable, str(script)])
            return
        scorer = TcpScorer()
        try:
            yield scorer.endpoint
        finally:
            scorer.close()

    def _score(self, corpus, endpoint, out_dir):
        code = main(
            [
                "score",
                "--input",
                str(corpus),
                "--backend",
                f"external:{endpoint}",
                "--out-dir",
                str(out_dir),
                "--segment-len",
                "4",
                "--truncate-len",
                "64",
                "--mode",
                "exact",
            ]
        )
        return code, (out_dir / "reports.jsonl").read_bytes()

    def test_reports_match_the_per_pair_path(self, endpoint, tmp_path, monkeypatch):
        corpus = write_windowed_corpus(tmp_path / "corpus.jsonl")
        windowed = self._score(corpus, endpoint, tmp_path / "windowed")
        monkeypatch.delattr(ExternalBackend, "score_pairs")
        per_pair = self._score(corpus, endpoint, tmp_path / "per-pair")
        assert windowed == per_pair
        assert windowed[0] == 4

    def test_error_answer_fails_its_document_only(self, endpoint, tmp_path):
        code, reports = self._score(
            write_windowed_corpus(tmp_path / "corpus.jsonl"), endpoint, tmp_path / "a"
        )
        rows = [json.loads(line) for line in reports.decode().splitlines()]
        failed = [row for row in rows if row["status"] != "scored"]
        assert failed == [
            {
                "doc_id": "d002",
                "reason": "conditional scoring failed at pair (8, 7): scorer error: "
                "poisoned context",
                "source": "web",
                "status": "failed",
            }
        ]
        # The documents after it score as they do without it.
        _, clean = self._score(
            write_windowed_corpus(tmp_path / "clean.jsonl", poisoned=False),
            endpoint,
            tmp_path / "b",
        )
        assert [row for row in rows if row["status"] == "scored"] == [
            json.loads(line) for line in clean.decode().splitlines()
        ]


# The scorer behind TestRequestStream: it appends each request line, as
# received, to the file named by its argument, and answers it.
LOGGING_SCORER = """\
import json, sys
with open(sys.argv[1], "ab") as log:
    for line in sys.stdin.buffer:
        log.write(line)
        log.flush()
        req = json.loads(line)
        n = len(req["target"].split())
        rate = -0.5 if req["context"] else -1.0
        out = {"req_id": req["req_id"], "logprob_sum": rate * n, "token_count": n}
        sys.stdout.write(json.dumps(out) + "\\n")
        sys.stdout.flush()
"""

STREAM_SEGMENT_LEN = 4
STREAM_SAMPLE_SIZE = 200
STREAM_SEED = 7


def stream_segment(doc, i):
    """Segment ``i`` of document ``doc`` of the request-stream corpus."""
    if doc == "wide" and i % 12 == 5:
        return ["rep"] * STREAM_SEGMENT_LEN  # one content, four times
    return [f"{doc[0]}{i}x{j}" for j in range(STREAM_SEGMENT_LEN)]


# (doc_id, segment count): 8 segments have 28 pairs, all of which the
# sample takes (an exact document); 24 and 48 are sampled, and the
# 48-segment document has more than 32 distinct targets,
# some of them one repeated segment.
STREAM_DOCS = (("short", 8), ("mid", 24), ("wide", 48))

# The sha256 of the request lines the corpus above sends, recorded when
# every unconditional request still went out alone.
STREAM_SHA256 = "525a5eee7a2e8dbdfc110145a9cd3aaeb5539d0c0c5c04af645a09e6ed157981"


class TestRequestStream:
    def test_request_lines_are_pinned(self, tmp_path):
        from longdep.lds import derive_seed, sample_pairs

        corpus = tmp_path / "corpus.jsonl"
        with open(corpus, "w", encoding="utf-8") as handle:
            for doc, n in STREAM_DOCS:
                words = [word for i in range(n) for word in stream_segment(doc, i)]
                handle.write(json.dumps({"id": doc, "text": " ".join(words)}) + "\n")
        targets, _ = sample_pairs(48, STREAM_SAMPLE_SIZE, derive_seed(STREAM_SEED, "wide"))
        contents = [tuple(stream_segment("wide", t)) for t in set(targets.tolist())]
        # More distinct targets than the 32-request windows of the client
        # that recorded the pin.
        assert len(set(contents)) > 32 and len(set(contents)) < len(contents)
        assert 8 * 7 // 2 <= STREAM_SAMPLE_SIZE < 24 * 23 // 2
        scorer = tmp_path / "scorer.py"
        scorer.write_text(LOGGING_SCORER, encoding="utf-8")
        log = tmp_path / "requests.log"
        command = shlex.join([sys.executable, str(scorer), str(log)])
        # A fresh process, so request ids start at 1.
        cmd = [
            sys.executable, "-m", "longdep.cli", "score", "--input", str(corpus),
            "--backend", f"external:stdio://{command}", "--out-dir", str(tmp_path / "out"),
            "--segment-len", str(STREAM_SEGMENT_LEN), "--truncate-len", "192",
            "--mode", "sampled", "--sample-size", str(STREAM_SAMPLE_SIZE),
            "--seed", str(STREAM_SEED),
        ]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = log.read_bytes()
        assert hashlib.sha256(lines).hexdigest() == STREAM_SHA256, len(lines.splitlines())

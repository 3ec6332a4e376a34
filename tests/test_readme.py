"""The README's code examples run as written."""

import ast
import json
from pathlib import Path

from longdep.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    with open(tmp_path / "corpus.jsonl", "w", encoding="utf-8") as handle:
        for i in range(6):
            text = " ".join(f"w{(i * j) % 17}" for j in range(300))
            handle.write(json.dumps({"id": f"d{i}", "text": text}) + "\n")
    monkeypatch.chdir(tmp_path)
    assert main(["train-ngram", "--input", "corpus.jsonl", "--out", "model.bin"]) == 0
    capsys.readouterr()
    exec(compile(library_example(), str(README), "exec"), {})
    retained = ast.literal_eval(capsys.readouterr().out)
    assert len(retained) == 3
    assert set(retained) <= {f"d{i}" for i in range(6)}

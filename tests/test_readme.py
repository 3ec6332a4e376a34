"""The README's code examples run as written, and its Configuration table
shows the schema's defaults."""

import ast
import json
from pathlib import Path

from longdep.cli import main
from longdep.config import REFERENCE_PROFILE

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


def config_table() -> list[tuple[str, str]]:
    """(key, default) of every key in the Configuration table; a row may
    name several keys, and their defaults, comma-separated."""
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    rows = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("|")]
    pairs = []
    for row in rows[2:]:
        keys, defaults = (cell.strip() for cell in row.split("|")[1:3])
        pairs += zip(keys.split(", "), defaults.split(", "), strict=True)
    return pairs


def test_configuration_table_lists_every_key_once_with_its_default():
    table = config_table()
    assert sorted(key for key, _ in table) == sorted(REFERENCE_PROFILE)
    for key, shown in table:
        default = REFERENCE_PROFILE[key]
        assert shown == ("(none)" if default == "" else str(default)), key

"""Canonical artifact writing."""

import os

import pytest

from longdep import jsonio
from longdep.jsonio import write_canonical


def test_unserializable_object_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "artifact.json"
    write_canonical(str(path), {"a": 1})
    with pytest.raises(TypeError):
        write_canonical(str(path), {"a": object()})
    assert path.read_text() == '{"a":1}\n'
    assert os.listdir(tmp_path) == ["artifact.json"]


def test_interrupted_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "artifact.json"
    write_canonical(str(path), {"a": 1})

    def killed(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(jsonio.os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        write_canonical(str(path), {"a": 2, "b": "x" * 100_000})
    assert path.read_text() == '{"a":1}\n'
